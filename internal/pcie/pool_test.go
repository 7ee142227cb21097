package pcie

import (
	"bytes"
	"testing"

	"snacc/internal/sim"
)

// TestTransactionAllocBudget pins the per-call allocation cost of the
// pooled read and posted-write chains once their records are warm: a
// megabyte read is 2048 chunks, and none of them may allocate.
func TestTransactionAllocBudget(t *testing.T) {
	cases := []struct {
		name  string
		n     int64
		write bool
	}{
		{"read-1MiB", 1 << 20, false},
		{"read-4KiB", 4 << 10, false},
		{"write-1MiB", 1 << 20, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k, _, _, dev, _, _ := testFabric(t, DefaultConfig())
			done := 0
			fn := func() { done++ }
			op := func() {
				if c.write {
					dev.Write(0, c.n, nil, fn)
				} else {
					dev.Read(0, c.n, nil, fn)
				}
				k.Run(0)
			}
			op() // warm the free lists, gate ring and event heap
			if got := testing.AllocsPerRun(20, op); got > 2 {
				t.Errorf("%s: %.1f allocs per call, budget 2", c.name, got)
			}
			if done != 22 {
				t.Errorf("%d completions, want 22", done)
			}
		})
	}
}

// TestReadReentrantFromCompletion issues each next read from the previous
// read's completion fn, which runs after the finished request's records are
// back on the free list — so the follow-up read reuses them while the call
// stack that returned them is still live.
func TestReadReentrantFromCompletion(t *testing.T) {
	k, _, _, dev, hostMem, _ := testFabric(t, DefaultConfig())
	const n, rounds = 3000, 6
	want := make([]byte, n*rounds)
	for i := range want {
		want[i] = byte(i*13 + 5)
	}
	hostMem.Store().WriteBytes(0x2000, want)
	got := make([]byte, len(want))
	issued := 0
	var next func()
	next = func() {
		if issued == rounds {
			return
		}
		off := issued * n
		issued++
		dev.Read(0x2000+uint64(off), n, got[off:off+n], next)
	}
	next()
	k.Run(0)
	if issued != rounds {
		t.Fatalf("issued %d reads, want %d", issued, rounds)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("re-entrant reads delivered the wrong bytes")
	}
}

// chainCompleter wraps a memory and, from inside its first read's done
// callback, makes its port issue a read of its own — a read started while
// another read's chunk is mid-chain on the same fabric.
type chainCompleter struct {
	*MemCompleter
	port *Port
	addr uint64
	buf  []byte
	got  bool
}

func (c *chainCompleter) CompleteRead(addr uint64, n int64, buf []byte, done func()) {
	c.MemCompleter.CompleteRead(addr, n, buf, func() {
		if c.port != nil {
			pt := c.port
			c.port = nil
			pt.Read(c.addr, int64(len(c.buf)), c.buf, func() { c.got = true })
		}
		done()
	})
}

func TestReadIssuedFromCompleterDone(t *testing.T) {
	k := sim.NewKernel()
	f := NewFabric(k, DefaultConfig())
	hostMem := NewMemCompleter(k, 50e9, 90*sim.Nanosecond)
	devMem := &chainCompleter{MemCompleter: NewMemCompleter(k, 30e9, 200*sim.Nanosecond)}
	devMem.Base = 0x10_0000_0000
	host := f.AttachHostPort("host", LinkConfig{Gen: Gen4, Lanes: 16}, hostMem)
	dev := f.AttachPort("dev", LinkConfig{Gen: Gen3, Lanes: 16}, devMem)
	f.MapRange(host, 0, 1<<30)
	f.MapRange(dev, 0x10_0000_0000, 256<<20)
	f.IOMMU().Grant("dev", 0, 1<<30)

	hostData := make([]byte, 5000)
	for i := range hostData {
		hostData[i] = byte(i*3 + 1)
	}
	hostMem.Store().WriteBytes(0x8000, hostData)
	devData := make([]byte, 2000)
	for i := range devData {
		devData[i] = byte(i*11 + 7)
	}
	devMem.Store().WriteBytes(0, devData)

	devMem.port, devMem.addr = dev, 0x8000
	devMem.buf = make([]byte, len(hostData))
	got := make([]byte, len(devData))
	hostDone := false
	host.Read(0x10_0000_0000, int64(len(got)), got, func() { hostDone = true })
	k.Run(0)

	if !hostDone || !devMem.got {
		t.Fatalf("completions: outer %v, inner %v; want both", hostDone, devMem.got)
	}
	if !bytes.Equal(got, devData) {
		t.Fatal("outer read delivered the wrong bytes")
	}
	if !bytes.Equal(devMem.buf, hostData) {
		t.Fatal("read issued from a completer's done delivered the wrong bytes")
	}
}

// TestCreditGateRingBounded keeps a constant backlog of reads waiting for
// credits while thousands flow through: the gate's ring must stay sized
// to the peak backlog instead of growing with the total read count.
func TestCreditGateRingBounded(t *testing.T) {
	k, _, _, dev, _, _ := testFabric(t, DefaultConfig())
	const total, backlog = 5000, 48
	chunk := dev.Link().MaxReadRequest
	issued, completed, peak := 0, 0, 0
	var issue func()
	issue = func() {
		if issued == total {
			return
		}
		dev.Read(uint64(issued)*uint64(chunk)%(1<<28), chunk, nil, func() {
			completed++
			issue()
		})
		issued++
		if w := dev.credits.q.Len(); w > peak {
			peak = w
		}
	}
	for i := 0; i < dev.Link().ReadCredits+backlog; i++ {
		issue()
	}
	k.Run(0)
	if completed != total {
		t.Fatalf("completed %d reads, want %d", completed, total)
	}
	if peak < backlog {
		t.Fatalf("peak backlog %d, want >= %d", peak, backlog)
	}
	if c := dev.credits.q.Cap(); c > 2*peak {
		t.Fatalf("gate ring capacity %d after %d reads, want <= 2x peak backlog %d", c, total, peak)
	}
}

func BenchmarkPortRead1M(b *testing.B) {
	k := sim.NewKernel()
	f := NewFabric(k, DefaultConfig())
	host := f.AttachHostPort("host", LinkConfig{Gen: Gen4, Lanes: 16},
		NewMemCompleter(k, 50e9, 90*sim.Nanosecond))
	f.MapRange(host, 0, 1<<30)
	ep := f.AttachPort("ep", LinkConfig{Gen: Gen4, Lanes: 4}, nil)
	f.IOMMU().Grant("ep", 0, 1<<30)
	fn := func() {}
	b.ReportAllocs()
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		ep.Read(uint64(i%64)<<20, 1<<20, nil, fn)
		k.Run(0)
	}
}
