package sim

// Proc is a cooperative simulation process: a goroutine that runs only while
// the kernel has handed it control, and hands control back whenever it
// blocks on simulated time (Sleep) or on a synchronization object (Chan,
// Resource, Pipe). At most one Proc executes at any real instant, so models
// need no locking and the simulation is deterministic.
type Proc struct {
	k    *Kernel
	name string

	resume   chan struct{}
	toKernel chan struct{}
	done     bool

	// parked is true while the process waits for an explicit wake rather
	// than a timer. parkSeq distinguishes successive parks so a stale
	// timeout cannot wake a later, unrelated park.
	parked  bool
	parkSeq uint64
	// daemon marks a service loop that legitimately idles forever; parked
	// daemons do not count toward deadlock detection.
	daemon bool

	// run is p.dispatch bound once at Spawn, so scheduling the process
	// (Spawn, Sleep, Wake) allocates no closure.
	run func()
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
	p := &Proc{
		k:        k,
		name:     name,
		resume:   make(chan struct{}),
		toKernel: make(chan struct{}),
	}
	p.run = p.dispatch
	k.nprocs++
	go func() {
		<-p.resume
		fn(p)
		p.done = true
		p.k.nprocs--
		p.toKernel <- struct{}{}
	}()
	k.At(k.now, p.run)
	return p
}

// dispatch transfers control to p and blocks (in real time) until p yields
// or finishes. Must only be called from kernel context.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	p.resume <- struct{}{}
	<-p.toKernel
}

// yield returns control to the kernel and blocks until redispached.
func (p *Proc) yield() {
	p.toKernel <- struct{}{}
	<-p.resume
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
	p.parkSeq++
	p.parked = true
	p.k.parked++
	if p.daemon {
		p.k.parkedDaemons++
	}
	p.yield()
}

// Wake schedules a parked process to resume at the current simulated time.
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

// ParkTimeout parks for at most d and reports whether the wait timed out
// rather than being woken. On timeout the caller is responsible for removing
// itself from whatever wait queue it joined.
func (p *Proc) ParkTimeout(d Time) (timedOut bool) {
	seq := p.parkSeq + 1
	out := false
	p.k.After(d, func() {
		if p.parked && p.parkSeq == seq {
			out = true
			p.Wake()
		}
	})
	p.Park()
	return out
}
