// iter.Pull needs language version 1.23. This constraint raises it for this
// file alone, so go.mod stays at go 1.22: raising it there would stop the
// simcost module, which builds this one through a replace and declares
// go 1.22, from building until its own go.mod follows.
//go:build go1.23

package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a cooperative simulation process: a coroutine that runs only
// while the kernel has handed it control, and yields back whenever it
// blocks on simulated time (Sleep) or on a synchronization object (Chan,
// Resource, Pipe). A hand-off is a direct coroutine switch, not a trip
// through the Go scheduler. At most one Proc executes at any real instant,
// so models need no locking and the simulation is deterministic.
//
// The kernel recycles the coroutine of a finished process for a later
// Spawn; each Spawn still gets a fresh Proc, so a stale Wake of a finished
// process never reaches the coroutine's next occupant. Kernel.Close stops
// every coroutine, parked or recycled, so a closed kernel holds no
// goroutines and can be collected. A panic inside a process reaches the
// caller of Kernel.Run as a *ProcPanic naming the process.
type Proc struct {
	k    *Kernel
	name string
	c    *coro
	done bool

	// parked is true while the process waits for an explicit wake rather
	// than a timer.
	parked bool
	// daemon marks a service loop that legitimately idles forever; parked
	// daemons do not count toward deadlock detection.
	daemon bool

	// run is p.dispatch bound once at Spawn, so scheduling the process
	// (Spawn, Sleep, Wake) allocates no closure.
	run func()
}

// coro is a recyclable coroutine that runs process bodies one after
// another: p and fn are the occupant, next runs it, and yield (valid
// once the coroutine has started) suspends it.
type coro struct {
	p     *Proc
	fn    func(*Proc)
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// errClosed unwinds a process that Kernel.Close stopped mid-body; the
// coroutine's top frame recovers it.
var errClosed = errors.New("sim: kernel closed")

// ProcPanic is the value Kernel.Run panics with when a process panics.
type ProcPanic struct {
	Proc  string // the process's name
	Value any    // the value the process panicked with
	Stack []byte // the process's stack at the panic
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n\n%s", e.Proc, e.Value, e.Stack)
}

// loop is the coroutine body: run the occupant, recycle, wait for the next.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	defer c.unwind()
	for {
		p, fn := c.p, c.fn
		c.fn = nil
		fn(p)
		p.done = true
		c.p = nil
		p.k.nprocs--
		p.k.idle.Put(c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// unwind recovers the Close sentinel and labels any other panic with the
// process's name before it propagates out of next into Kernel.Run.
func (c *coro) unwind() {
	r := recover()
	if r == nil || r == errClosed {
		return
	}
	panic(&ProcPanic{Proc: c.p.name, Value: r, Stack: debug.Stack()})
}

// SetDaemon marks the process as a daemon service loop. Call it from inside
// the process before its first Park.
func (p *Proc) SetDaemon(on bool) {
	if p.daemon == on {
		return
	}
	p.daemon = on
	if on {
		p.k.daemons++
	} else {
		p.k.daemons--
	}
}

// Spawn starts fn as a new process. fn begins executing at the current
// simulated time, after the caller yields back to the kernel.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	if k.closed {
		panic("sim: Spawn on a closed kernel")
	}
	c, fresh := k.idle.Get()
	if fresh {
		c.next, c.stop = iter.Pull(c.loop)
		k.coros = append(k.coros, c)
	}
	p := &Proc{k: k, name: name, c: c}
	p.run = p.dispatch
	c.p, c.fn = p, fn
	k.nprocs++
	k.At(k.now, p.run)
	return p
}

// dispatch runs p until it yields or finishes. Must only be called from
// kernel context.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	p.c.next()
}

// yield returns control to the kernel until redispatched, or unwinds the
// process if the kernel was closed meanwhile.
func (p *Proc) yield() {
	if !p.c.yield(struct{}{}) {
		panic(errClosed)
	}
}

// Close stops every coroutine the kernel owns, live or recycled, and drops
// the pending events, releasing everything the processes reference. A
// process parked in a yield unwinds through its deferred calls. Close is
// idempotent; call it from outside Run. Using the kernel after Close is a
// programming error: Spawn and Run panic.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	for _, c := range k.coros {
		c.stop()
	}
	k.coros = nil
	k.idle = FreeList[coro]{}
	k.queue.ev = nil
}

// Name returns the name given at Spawn, for traces and panics.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep suspends the process for d. A non-positive d still yields, letting
// already-scheduled same-time events run first.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	k := p.k
	k.At(k.now+d, p.run)
	p.yield()
}

// Park suspends the process until another component calls Wake. Every Park
// must be paired with exactly one Wake; the synchronization objects in this
// package maintain that pairing.
func (p *Proc) Park() {
	p.parked = true
	p.k.parked++
	if p.daemon {
		p.k.parkedDaemons++
	}
	p.yield()
}

// Wake schedules a parked process to continue at the current simulated time.
// It is a no-op if the process is not parked, so wakers may race benignly.
func (p *Proc) Wake() {
	if !p.parked {
		return
	}
	p.parked = false
	p.k.parked--
	if p.daemon {
		p.k.parkedDaemons--
	}
	p.k.At(p.k.now, p.run)
}
