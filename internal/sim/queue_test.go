package sim

import "testing"

func TestQueueWrapAround(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	// Keep three values queued while hundreds flow through, so the head
	// wraps the four-slot ring many times without growing it.
	for i := 0; i < 3; i++ {
		q.Push(next)
		next++
	}
	for i := 0; i < 500; i++ {
		q.Push(next)
		next++
		if got := q.Peek(); got != want {
			t.Fatalf("Peek = %d, want %d", got, want)
		}
		if got := q.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
		want++
	}
	if q.Len() != 3 || q.Cap() != 4 {
		t.Fatalf("Len %d Cap %d, want 3 and 4", q.Len(), q.Cap())
	}
}

func TestQueueGrowWhileWrapped(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Pop()
	q.Push(4)
	q.Push(5) // full, with the live range wrapping the end of the ring
	for i := 6; i < 11; i++ {
		q.Push(i) // grows from the wrapped state
	}
	if q.Cap() != 16 {
		t.Fatalf("Cap = %d, want 16", q.Cap())
	}
	for want := 2; want < 11; want++ {
		if got := q.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

func TestQueuePopClearsSlot(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	q.Push(v)
	q.Pop()
	if q.buf[0] != nil {
		t.Fatal("Pop left the dequeued pointer in the ring")
	}
}

func TestQueueEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(*Queue[int]){
		"Pop":  func(q *Queue[int]) { q.Pop() },
		"Peek": func(q *Queue[int]) { q.Peek() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty queue did not panic", name)
				}
			}()
			f(&Queue[int]{})
		}()
	}
}

// TestProcHandoffAllocBudget pins a Proc.Sleep and a Chan Put→Get hand-off
// between two processes at zero allocations once warm: the dispatch
// callback is bound at Spawn and the channel recycles its waiters.
func TestProcHandoffAllocBudget(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 0)
	stop := false
	got := 0
	k.Spawn("producer", func(p *Proc) {
		for i := 1; !stop; i++ {
			p.Sleep(1)
			c.Put(p, i)
		}
		c.Put(p, -1)
	})
	k.Spawn("consumer", func(p *Proc) {
		for {
			v := c.Get(p)
			if v < 0 {
				return
			}
			got = v
		}
	})
	step := func() { k.Run(k.Now() + 1) }
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("Sleep + Put/Get hand-off: %.1f allocs per step, want 0", allocs)
	}
	if got < 100 {
		t.Errorf("consumer saw %d values, want >= 100", got)
	}
	stop = true
	k.Run(0)
}

// TestChanStrayWakeKeepsQueuedValue wakes a producer blocked in Put before
// the channel takes its value. Its waiter stays queued, so the producer's
// next blocking Put must get a different waiter rather than overwrite the
// queued value.
func TestChanStrayWakeKeepsQueuedValue(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 1)
	var got []int
	var prod *Proc
	prod = k.Spawn("producer", func(p *Proc) {
		c.Put(p, 1) // buffered
		c.Put(p, 2) // blocks
		c.Put(p, 3) // blocks again after the stray wake
	})
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(10)
		prod.Wake()
	})
	k.Spawn("consumer", func(p *Proc) {
		p.Sleep(20)
		for i := 0; i < 3; i++ {
			got = append(got, c.Get(p))
		}
	})
	k.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("consumer got %v, want [1 2 3]", got)
	}
}
