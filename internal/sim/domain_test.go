package sim

import (
	"fmt"
	"strings"
	"testing"
)

// ringRig builds a 4-domain ring exercising everything the conservative
// scheduler must keep deterministic: staggered intra-domain event bursts,
// cross-domain sends with per-edge lookahead, and same-timestamp collisions.
// It returns one FNV-1a digest per domain over (event time, tag) — combined
// in domain order, the digests pin the execution byte-for-byte.
func ringRig() (digests []uint64, events uint64, rounds uint64) {
	const (
		domains  = 4
		look     = 50 * Nanosecond
		messages = 200
	)
	s := NewShard()
	ds := make([]*Domain, domains)
	for i := range ds {
		ds[i] = s.AddDomain(fmt.Sprintf("d%d", i))
	}
	edges := make([]*Edge, domains)
	for i := range ds {
		edges[i] = s.MustConnect(ds[i], ds[(i+1)%domains], look)
	}
	dig := make([]uint64, domains)
	for i := range dig {
		dig[i] = 14695981039346656037
	}
	fold := func(d int, v uint64) {
		h := dig[d]
		h ^= v
		h *= 1099511628211
		dig[d] = h
	}
	rngs := make([]*Rand, domains)
	for i := range rngs {
		rngs[i] = NewRand(uint64(i + 1))
	}
	var hop func(d, remaining int)
	hop = func(d, remaining int) {
		k := ds[d].k
		fold(d, uint64(k.Now()))
		// A burst of local work, deliberately overlapping other messages'
		// timestamps so tie-breaking matters.
		for j := 0; j < 8; j++ {
			tag := uint64(remaining*100 + j)
			k.After(Time(rngs[d].Int63n(40)), func() { fold(d, uint64(k.Now())^tag) })
		}
		if remaining > 0 {
			next := (d + 1) % domains
			edges[d].At(k.Now()+look+Time(rngs[d].Int63n(30)), func() { hop(next, remaining-1) })
		}
	}
	for m := 0; m < messages; m++ {
		d0 := m % domains
		at := Time(m * 7)
		ds[d0].k.At(at, func() { hop(d0, 12) })
	}
	s.Run(0)
	return dig, s.EventsExecuted(), s.Rounds()
}

// TestShardRingDeterminism pins the core guarantee: the ring rig's
// per-domain digests, total event count and round count are identical
// from run to run.
func TestShardRingDeterminism(t *testing.T) {
	refDig, refEvents, refRounds := ringRig()
	if refEvents == 0 {
		t.Fatal("ring rig executed no events")
	}
	dig, events, rounds := ringRig()
	if events != refEvents || rounds != refRounds {
		t.Fatalf("rerun: events/rounds = %d/%d, want %d/%d", events, rounds, refEvents, refRounds)
	}
	for i := range dig {
		if dig[i] != refDig[i] {
			t.Fatalf("rerun: domain %d digest %#x diverged from first run %#x", i, dig[i], refDig[i])
		}
	}
}

// TestShardSingleDomainMatchesKernel pins graceful degradation: one domain,
// no edges, and the shard executes the exact same event sequence as a bare
// kernel — same times, same order, same executed count.
func TestShardSingleDomainMatchesKernel(t *testing.T) {
	build := func(k *Kernel) *[]Time {
		var trace []Time
		rng := NewRand(7)
		for i := 0; i < 500; i++ {
			k.At(Time(rng.Int63n(1000)), func() { trace = append(trace, k.Now()) })
		}
		return &trace
	}
	plain := NewKernel()
	wantTrace := build(plain)
	plainEnd := plain.Run(0)

	s := NewShard()
	d := s.AddDomain("sys")
	gotTrace := build(d.Kernel())
	end := s.Run(0)

	if end != plainEnd {
		t.Fatalf("shard end time %v, kernel end time %v", end, plainEnd)
	}
	if s.EventsExecuted() != plain.EventsExecuted() {
		t.Fatalf("shard executed %d events, kernel %d", s.EventsExecuted(), plain.EventsExecuted())
	}
	if len(*gotTrace) != len(*wantTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(*gotTrace), len(*wantTrace))
	}
	for i := range *gotTrace {
		if (*gotTrace)[i] != (*wantTrace)[i] {
			t.Fatalf("trace[%d] = %v, want %v", i, (*gotTrace)[i], (*wantTrace)[i])
		}
	}
}

// TestShardCrossDomainTieBreak pins the barrier merge order: same-timestamp
// deliveries from different source domains execute in (domain id, sequence)
// order, independent of the order the sources scheduled their events in.
func TestShardCrossDomainTieBreak(t *testing.T) {
	s := NewShard()
	sink := s.AddDomain("sink")
	srcA := s.AddDomain("a")
	srcB := s.AddDomain("b")
	ea := s.MustConnect(srcA, sink, 10)
	eb := s.MustConnect(srcB, sink, 10)
	var order []string
	// Both sources schedule deliveries for the same destination
	// timestamp, from events at the same source timestamp. srcB's
	// kernel event is scheduled before srcA's, so kernel scheduling
	// order must not leak into the merge order.
	srcB.Kernel().At(5, func() {
		eb.At(20, func() { order = append(order, "b1") })
		eb.At(20, func() { order = append(order, "b2") })
	})
	srcA.Kernel().At(5, func() {
		ea.At(20, func() { order = append(order, "a1") })
	})
	s.Run(0)
	want := "a1,b1,b2" // domain a (id 1) merges before b (id 2); b's sends keep their sequence order
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("delivery order %q, want %q", got, want)
	}
}

// TestConnectValidation pins the build-time rejection of partitions that
// could never synchronize.
func TestConnectValidation(t *testing.T) {
	s := NewShard()
	a := s.AddDomain("a")
	b := s.AddDomain("b")
	if _, err := s.Connect(a, b, 0); err == nil || !strings.Contains(err.Error(), "lookahead") {
		t.Fatalf("zero lookahead: got err %v, want lookahead error", err)
	}
	if _, err := s.Connect(a, b, -5); err == nil || !strings.Contains(err.Error(), "lookahead") {
		t.Fatalf("negative lookahead: got err %v, want lookahead error", err)
	}
	if _, err := s.Connect(a, a, 10); err == nil {
		t.Fatal("self edge accepted")
	}
	if _, err := s.Connect(nil, b, 10); err == nil {
		t.Fatal("nil domain accepted")
	}
	other := NewShard()
	c := other.AddDomain("c")
	if _, err := s.Connect(a, c, 10); err == nil {
		t.Fatal("cross-shard edge accepted")
	}
	e, err := s.Connect(a, b, 10)
	if err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if e.Lookahead() != 10 || e.From() != a || e.To() != b {
		t.Fatalf("edge accessors wrong: look=%v from=%s to=%s", e.Lookahead(), e.From().Name(), e.To().Name())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MustConnect did not panic on invalid edge")
			}
		}()
		s.MustConnect(a, a, 10)
	}()
}

// TestEdgeLookaheadViolationPanics pins the runtime guard: scheduling a
// cross-domain event closer than the declared lookahead is a model bug and
// must fail loudly, not corrupt the horizon.
func TestEdgeLookaheadViolationPanics(t *testing.T) {
	s := NewShard()
	a := s.AddDomain("a")
	b := s.AddDomain("b")
	e := s.MustConnect(a, b, 100)
	a.Kernel().At(50, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("lookahead violation did not panic")
			} else if !strings.Contains(fmt.Sprint(r), "lookahead") {
				t.Errorf("panic %v does not mention lookahead", r)
			}
			panicOK := fmt.Errorf("rethrow")
			_ = panicOK
		}()
		e.At(a.Kernel().Now()+99, func() {})
	})
	s.Run(0)
}

// TestShardDeadlockPanics pins shard-wide deadlock detection, including the
// offending domain's name in the message.
func TestShardDeadlockPanics(t *testing.T) {
	s := NewShard()
	a := s.AddDomain("alpha")
	b := s.AddDomain("beta")
	s.MustConnect(a, b, 10)
	a.Kernel().Spawn("stuck", func(p *Proc) { p.Park() })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlocked shard did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "alpha") {
			t.Fatalf("panic %q does not identify the deadlock and domain", msg)
		}
	}()
	s.Run(0)
}

// TestShardDaemonsIdleCleanly pins the daemon exemption: parked daemon
// service loops are not a deadlock.
func TestShardDaemonsIdleCleanly(t *testing.T) {
	s := NewShard()
	a := s.AddDomain("a")
	b := s.AddDomain("b")
	e := s.MustConnect(a, b, 10)
	got := 0
	var svc *Proc
	svc = b.Kernel().Spawn("svc", func(p *Proc) {
		p.SetDaemon(true)
		for {
			p.Park()
			got++
		}
	})
	a.Kernel().At(5, func() { e.At(20, func() { svc.Wake() }) })
	s.Run(0)
	if got != 1 {
		t.Fatalf("daemon woken %d times, want 1", got)
	}
}

// TestShardHorizon pins horizon semantics across domains: events at or
// before the horizon run, later events stay pending, and a subsequent Run
// resumes them.
func TestShardHorizon(t *testing.T) {
	s := NewShard()
	a := s.AddDomain("a")
	b := s.AddDomain("b")
	e := s.MustConnect(a, b, 5)
	var fired []Time
	a.Kernel().At(10, func() {
		fired = append(fired, 10)
		e.At(30, func() { fired = append(fired, 30) })
	})
	a.Kernel().At(15, func() { fired = append(fired, 15) })
	if end := s.Run(15); end != 15 {
		t.Fatalf("Run(15) = %v, want 15", end)
	}
	if want := []Time{10, 15}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v before horizon, want %v", fired, want)
	}
	if s.Now() != 15 {
		t.Fatalf("Now() = %v after horizon, want 15", s.Now())
	}
	if end := s.Run(0); end != 30 {
		t.Fatalf("resumed Run = %v, want 30", end)
	}
	if len(fired) != 3 || fired[2] != 30 {
		t.Fatalf("pending cross event did not resume: %v", fired)
	}
}

// TestShardStop pins Stop: the run returns after the current round and a
// later Run picks the remaining events back up.
func TestShardStop(t *testing.T) {
	s := NewShard()
	a := s.AddDomain("a")
	b := s.AddDomain("b")
	s.MustConnect(a, b, 1000)
	ran := 0
	a.Kernel().At(10, func() { ran++; s.Stop() })
	a.Kernel().At(5000, func() { ran++ })
	s.Run(0)
	if ran != 1 {
		t.Fatalf("ran %d events before Stop, want 1", ran)
	}
	s.Run(0)
	if ran != 2 {
		t.Fatalf("ran %d events after resume, want 2", ran)
	}
}

// TestEdgeAfter pins the relative-time helper.
func TestEdgeAfter(t *testing.T) {
	s := NewShard()
	a := s.AddDomain("a")
	b := s.AddDomain("b")
	e := s.MustConnect(a, b, 7)
	var at Time = -1
	a.Kernel().At(100, func() { e.After(7, func() { at = b.Kernel().Now() }) })
	s.Run(0)
	if at != 107 {
		t.Fatalf("After(7) delivered at %v, want 107", at)
	}
}

// TestShardZeroAllocIntraDomain extends the kernel's 0 allocs/op guarantee
// to sharded execution: steady-state intra-domain scheduling under the
// conservative loop allocates nothing, even with edges declared.
func TestShardZeroAllocIntraDomain(t *testing.T) {
	s := NewShard()
	a := s.AddDomain("a")
	b := s.AddDomain("b")
	s.MustConnect(a, b, 100)
	k := a.Kernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n%256 != 0 {
			k.After(10, tick)
		}
	}
	// Warm: grow the queue backing array and the run bookkeeping.
	k.After(1, tick)
	s.Run(0)
	allocs := testing.AllocsPerRun(16, func() {
		k.After(10, tick)
		s.Run(0)
	})
	if allocs > 0 {
		t.Fatalf("intra-domain sharded hot path allocates %.1f/run, want 0", allocs)
	}
}

// TestPlanValidateBuild pins the declarative partition helper.
func TestPlanValidateBuild(t *testing.T) {
	bad := []Plan{
		{},
		{Domains: []string{""}},
		{Domains: []string{"a", "a"}},
		{Domains: []string{"a"}, Edges: []EdgeSpec{{Src: "a", Dst: "ghost", Lookahead: 5}}},
		{Domains: []string{"a", "b"}, Edges: []EdgeSpec{{Src: "a", Dst: "b", Lookahead: 0}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d validated", i)
		}
		if _, _, err := p.Build(NewShard()); err == nil {
			t.Errorf("bad plan %d built", i)
		}
	}
	p := Plan{
		Domains: []string{"eth", "pcie", "nvme0"},
		Edges: []EdgeSpec{
			{Src: "eth", Dst: "pcie", Lookahead: 500},
			{Src: "pcie", Dst: "eth", Lookahead: 500},
			{Src: "pcie", Dst: "nvme0", Lookahead: 450},
			{Src: "nvme0", Dst: "pcie", Lookahead: 450},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	s := NewShard()
	domains, edges, err := p.Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(domains) != 3 || len(edges) != 4 {
		t.Fatalf("Build returned %d domains, %d edges", len(domains), len(edges))
	}
	if e := edges["pcie->nvme0"]; e == nil || e.From() != domains["pcie"] || e.To() != domains["nvme0"] || e.Lookahead() != 450 {
		t.Fatalf("edge map wrong: %+v", edges)
	}
	if len(s.domains) != 3 {
		t.Fatalf("shard state wrong: %d domains", len(s.domains))
	}
}

// TestShardProcsAndChansWithinDomains pins that the cooperative process
// model (Chan rendezvous, Sleep) works unchanged inside domains while cross
// effects ride the edges.
func TestShardProcsAndChansWithinDomains(t *testing.T) {
	run := func() []int64 {
		s := NewShard()
		prod := s.AddDomain("prod")
		cons := s.AddDomain("cons")
		e := s.MustConnect(prod, cons, 25)
		outK := cons.Kernel()
		inbox := NewChan[int64](outK, 4)
		var got []int64
		outK.Spawn("consumer", func(p *Proc) {
			for i := 0; i < 20; i++ {
				v := inbox.Get(p)
				got = append(got, v+int64(p.Now()))
			}
		})
		prod.Kernel().Spawn("producer", func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Sleep(Time(10 + i%3))
				v := int64(i * 100)
				e.After(25, func() {
					if !inbox.TryPut(v) {
						panic("inbox overflow")
					}
				})
			}
		})
		s.Run(0)
		return got
	}
	ref := run()
	if len(ref) != 20 {
		t.Fatalf("consumed %d values, want 20", len(ref))
	}
	if got := run(); fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Fatalf("rerun diverged:\n%v\nwant\n%v", got, ref)
	}
}
