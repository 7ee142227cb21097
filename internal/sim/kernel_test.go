package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(10, func() { got = append(got, 1) })
	k.At(5, func() { got = append(got, 0) })
	k.At(10, func() { got = append(got, 2) }) // same time: scheduling order
	k.Run(0)
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if k.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", k.Now())
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	k.Run(0)
}

func TestKernelHorizon(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(10, func() { fired++ })
	k.At(1000, func() { fired++ })
	end := k.Run(100)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if end != 100 {
		t.Fatalf("end = %v, want 100", end)
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	k.Run(0)
	if woke != 5*Microsecond {
		t.Fatalf("woke at %v, want 5us", woke)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a1")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(5)
		order = append(order, "b1")
	})
	k.Run(0)
	want := []string{"a0", "b0", "b1", "a1"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcParkWake(t *testing.T) {
	k := NewKernel()
	var waiter *Proc
	var wokeAt Time
	waiter = k.Spawn("waiter", func(p *Proc) {
		p.Park()
		wokeAt = p.Now()
	})
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(42)
		waiter.Wake()
	})
	k.Run(0)
	if wokeAt != 42 {
		t.Fatalf("woke at %v, want 42", wokeAt)
	}
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("parked process with empty queue should panic as deadlock")
		}
	}()
	k := NewKernel()
	k.Spawn("stuck", func(p *Proc) { p.Park() })
	k.Run(0)
}

func TestTransferTime(t *testing.T) {
	cases := []struct {
		n    int64
		bw   float64
		want Time
	}{
		{0, 1e9, 0},
		{1000, 1e9, 1000},            // 1000 B at 1 GB/s = 1us
		{4096, GBps(6.9), 594},       // one 4k page at SSD read speed
		{1 << 20, GBps(12.5), 83886}, // 1 MiB over 100G Ethernet
	}
	for _, c := range cases {
		if got := TransferTime(c.n, c.bw); got != c.want {
			t.Errorf("TransferTime(%d, %g) = %v, want %v", c.n, c.bw, got, c.want)
		}
	}
}

func TestTransferTimeMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		n1, n2 := int64(a%1<<24), int64(b%1<<24)
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		return TransferTime(n1, 1e9) <= TransferTime(n2, 1e9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:                "5ns",
		3 * Microsecond:  "3.000us",
		42 * Millisecond: "42.000ms",
		2 * Second:       "2.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("(%d).String() = %q, want %q", int64(in), got, want)
		}
	}
}
