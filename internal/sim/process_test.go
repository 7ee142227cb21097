package sim

import (
	"bytes"
	"runtime"
	"testing"
)

// TestSpawnAllocBudget pins a warm Spawn of a short-lived process at two
// allocations, the Proc and its bound run: the finished process's
// coroutine is recycled rather than made anew.
func TestSpawnAllocBudget(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	body := func(p *Proc) { p.Sleep(1) }
	step := func() {
		k.Spawn("short", body)
		k.Run(0)
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs > 2 {
		t.Errorf("warm Spawn: %.1f allocs, want <= 2", allocs)
	}
	if len(k.coros) != 1 {
		t.Errorf("%d coroutines made for one process at a time, want 1", len(k.coros))
	}
}

// TestProcPanicNamesProcess checks that a panic inside a process reaches
// the caller of Run labelled with the process's name, the original value
// and the stack at the panic site, and that the kernel can still be closed.
func TestProcPanicNamesProcess(t *testing.T) {
	k := NewKernel()
	k.Spawn("calm", func(p *Proc) { p.Sleep(5) })
	k.Spawn("faulty", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	defer func() {
		pp, ok := recover().(*ProcPanic)
		if !ok {
			t.Fatalf("Run did not panic with a *ProcPanic")
		}
		if pp.Proc != "faulty" || pp.Value != "boom" {
			t.Errorf("ProcPanic{Proc: %q, Value: %v}, want faulty, boom", pp.Proc, pp.Value)
		}
		if !bytes.Contains(pp.Stack, []byte("TestProcPanicNamesProcess")) {
			t.Errorf("stack does not show the panic site:\n%s", pp.Stack)
		}
		k.Close()
	}()
	k.Run(0)
}

// TestKernelClose stops a parked daemon, a sleeper, a process that never
// started and a recycled coroutine: every goroutine the kernel made exits,
// and a stopped process's deferred calls run.
func TestKernelClose(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	c := NewChan[int](k, 0)
	unwound := 0
	k.Spawn("daemon", func(p *Proc) {
		defer func() { unwound++ }()
		p.SetDaemon(true)
		for {
			c.Get(p)
		}
	})
	k.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(1000)
	})
	k.Spawn("brief", func(p *Proc) {})
	k.Run(10)
	k.Spawn("unstarted", func(p *Proc) { t.Error("unstarted process ran") })
	if n := len(k.coros); n != 3 {
		t.Fatalf("%d coroutines, want 3 (the brief one's is reused)", n)
	}
	if runtime.NumGoroutine() == before {
		t.Fatal("coroutines hold no goroutines; the leak check below proves nothing")
	}
	k.Close()
	k.Close() // idempotent
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("%d goroutines after Close, want %d", got, before)
	}
	if unwound != 2 {
		t.Errorf("%d stopped processes ran their defers, want 2", unwound)
	}
	for name, use := range map[string]func(){
		"Spawn": func() { k.Spawn("late", func(p *Proc) {}) },
		"Run":   func() { k.Run(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a closed kernel did not panic", name)
				}
			}()
			use()
		}()
	}
}

// BenchmarkKernelProcHandoff measures one Sleep(0) round trip: the kernel
// hands control to a process, which reschedules itself and yields back.
func BenchmarkKernelProcHandoff(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	n := b.N
	spin := k.Spawn("spin", func(p *Proc) {
		p.SetDaemon(true)
		p.Park() // started, so the timed loop pays no coroutine set-up
		for i := 0; i < n; i++ {
			p.Sleep(0)
		}
	})
	k.Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	spin.Wake()
	k.Run(0)
}
