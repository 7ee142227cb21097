package sim

import (
	"strings"
	"testing"
)

// TestEarliestSend exercises the kernel's earliest-output-time bound across
// its queue states: empty, local-headed, arrival-headed, mixed, and the
// overflow saturation path.
func TestEarliestSend(t *testing.T) {
	nop := func() {}

	k := NewKernel()
	if got := k.earliestSend(5); got != maxTime {
		t.Fatalf("empty queue: earliestSend = %v, want maxTime", got)
	}

	// A locally scheduled head may send the moment it runs, regardless of
	// turnaround.
	k = NewKernel()
	k.At(10, nop)
	if got := k.earliestSend(0); got != 10 {
		t.Fatalf("local head, no turnaround: %v, want 10", got)
	}
	if got := k.earliestSend(5); got != 10 {
		t.Fatalf("local head, turnaround 5: %v, want 10", got)
	}

	// All-arrival queues are bounded by head+turnaround.
	k = NewKernel()
	k.atArrival(10, nop)
	if got := k.earliestSend(0); got != 10 {
		t.Fatalf("arrival head, no turnaround: %v, want 10", got)
	}
	if got := k.earliestSend(5); got != 15 {
		t.Fatalf("arrival head, turnaround 5: %v, want 15", got)
	}

	// A local event inside the (head, head+turn) gap lowers the bound to its
	// own time; one at or beyond the gap leaves head+turn in force.
	k = NewKernel()
	k.atArrival(10, nop)
	k.At(12, nop)
	if got := k.earliestSend(5); got != 12 {
		t.Fatalf("local at 12 inside gap: %v, want 12", got)
	}
	k = NewKernel()
	k.atArrival(10, nop)
	k.At(20, nop)
	if got := k.earliestSend(5); got != 15 {
		t.Fatalf("local at 20 beyond gap: %v, want 15", got)
	}

	// Silent events neither pin the bound to the head nor count as locals.
	k = NewKernel()
	k.atArrival(10, nop)
	k.AtSilent(11, nop)
	if got := k.earliestSend(5); got != 15 {
		t.Fatalf("silent at 11: %v, want 15", got)
	}

	// head+turn overflow saturates to maxTime instead of wrapping negative.
	k = NewKernel()
	k.atArrival(maxTime-1, nop)
	if got := k.earliestSend(10); got != maxTime {
		t.Fatalf("overflow: %v, want maxTime", got)
	}

	// Draining the queue resets the local-event accounting.
	k = NewKernel()
	k.At(10, nop)
	k.Run(0)
	if k.localPending != 0 || k.minLocal != maxTime {
		t.Fatalf("after drain: localPending=%d minLocal=%v, want 0/maxTime", k.localPending, k.minLocal)
	}
}

// TestAtSilentFlatEquivalence pins AtSilent's serial semantics: on a flat
// kernel it is At with the no-send promise — same time, same tie-breaking
// order, counted in EventsExecuted.
func TestAtSilentFlatEquivalence(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(10, func() { order = append(order, 1) })
	k.AtSilent(10, func() { order = append(order, 2) })
	k.At(10, func() { order = append(order, 3) })
	k.At(5, func() {
		k.AfterSilent(5, func() { order = append(order, 4) })
	})
	k.Run(0)
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("executed %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
	if k.EventsExecuted() != 5 {
		t.Fatalf("EventsExecuted = %d, want 5", k.EventsExecuted())
	}
}

// mustPanic runs fn and returns the recovered panic message, failing the
// test if fn returns normally.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic")
		}
		msg = r.(string)
	}()
	fn()
	return ""
}

// TestSilentSendPanics verifies the AtSilent promise is enforced: a silent
// event attempting a cross-domain send fails loudly at the call site.
func TestSilentSendPanics(t *testing.T) {
	s := NewShard()
	a := s.AddDomain("a")
	b := s.AddDomain("b")
	ab := s.MustConnect(a, b, 10)
	s.MustConnect(b, a, 10)
	a.Kernel().AtSilent(5, func() { ab.After(10, func() {}) })
	msg := mustPanic(t, func() { s.Run(0) })
	if !strings.Contains(msg, "silent event") || !strings.Contains(msg, "a->b") {
		t.Fatalf("unexpected panic message: %s", msg)
	}
}

// TestMutedEdge verifies both halves of Mute: sending on a muted edge
// panics, and dropping the idle backchannel from the safe-time graph lets
// the destination take wider windows (fewer rounds) with identical results.
func TestMutedEdge(t *testing.T) {
	// Enforcement: the muted send fails at the call site.
	s := NewShard()
	a := s.AddDomain("a")
	b := s.AddDomain("b")
	ab := s.MustConnect(a, b, 10)
	ab.Mute()
	if !ab.Muted() {
		t.Fatal("Muted() = false after Mute")
	}
	a.Kernel().At(0, func() { ab.After(10, func() {}) })
	msg := mustPanic(t, func() { s.Run(0) })
	if !strings.Contains(msg, "muted edge") {
		t.Fatalf("unexpected panic message: %s", msg)
	}

	// Window widening: a one-way stream over a topology that also declares
	// an unused backchannel. Muting the backchannel must cut rounds without
	// changing the execution.
	run := func(mute bool) (trace []Time, rounds uint64) {
		s := NewShard()
		src := s.AddDomain("src")
		dst := s.AddDomain("dst")
		fwd := s.MustConnect(src, dst, 10)
		back := s.MustConnect(dst, src, 10)
		if mute {
			back.Mute()
		}
		for i := Time(0); i < 50; i++ {
			at := i * 7
			src.Kernel().At(at, func() {
				fwd.After(10, func() { trace = append(trace, dst.Kernel().Now()) })
			})
		}
		s.Run(0)
		return trace, s.Rounds()
	}
	open, openRounds := run(false)
	muted, mutedRounds := run(true)
	if len(open) != len(muted) {
		t.Fatalf("muted run delivered %d events, open run %d", len(muted), len(open))
	}
	for i := range open {
		if open[i] != muted[i] {
			t.Fatalf("delivery %d at %v muted vs %v open", i, muted[i], open[i])
		}
	}
	if mutedRounds >= openRounds {
		t.Fatalf("muting the backchannel did not cut rounds: %d muted vs %d open", mutedRounds, openRounds)
	}
}

// TestSetTurnaround covers the accessor and validation.
func TestSetTurnaround(t *testing.T) {
	s := NewShard()
	d := s.AddDomain("d")
	if d.Turnaround() != 0 {
		t.Fatalf("default turnaround %v, want 0", d.Turnaround())
	}
	d.SetTurnaround(25)
	if d.Turnaround() != 25 {
		t.Fatalf("turnaround %v, want 25", d.Turnaround())
	}
	msg := mustPanic(t, func() { d.SetTurnaround(-1) })
	if !strings.Contains(msg, "negative turnaround") {
		t.Fatalf("unexpected panic message: %s", msg)
	}
}

// TestTurnaroundArrivalSendChecked verifies the enforced half of the
// turnaround contract: a cross-domain arrival sending directly, earlier than
// arrival+turnaround+lookahead, panics; a sufficiently delayed direct send
// passes.
func TestTurnaroundArrivalSendChecked(t *testing.T) {
	build := func(respDelay Time) *Shard {
		s := NewShard()
		a := s.AddDomain("a")
		b := s.AddDomain("b")
		ab := s.MustConnect(a, b, 10)
		ba := s.MustConnect(b, a, 10)
		b.SetTurnaround(100)
		a.Kernel().At(0, func() {
			ab.After(10, func() { ba.After(respDelay, func() {}) })
		})
		return s
	}
	// Delivery at arrival+10 < arrival+100+10: breach.
	msg := mustPanic(t, func() { build(10).Run(0) })
	if !strings.Contains(msg, "turnaround") {
		t.Fatalf("unexpected panic message: %s", msg)
	}
	// Delivery at arrival+110 honors the declaration.
	build(110).Run(0)
}

// TestTurnaroundWidensWindows pins the earliest-output-time payoff: a
// request/response pair whose server declares its service time as turnaround
// synchronizes in fewer rounds than one that promises nothing, with the
// response stream identical.
func TestTurnaroundWidensWindows(t *testing.T) {
	run := func(turn Time) (trace []Time, rounds uint64) {
		const service = 500
		s := NewShard()
		cl := s.AddDomain("client")
		sv := s.AddDomain("server")
		req := s.MustConnect(cl, sv, 10)
		resp := s.MustConnect(sv, cl, 10)
		if turn > 0 {
			sv.SetTurnaround(turn)
		}
		for i := Time(0); i < 40; i++ {
			at := i * 25
			cl.Kernel().At(at, func() {
				req.After(10, func() {
					// The server "processes" for its service time before
					// responding — honoring any declared turnaround.
					resp.After(service+10, func() { trace = append(trace, cl.Kernel().Now()) })
				})
			})
		}
		s.Run(0)
		return trace, s.Rounds()
	}
	bare, bareRounds := run(0)
	declared, declaredRounds := run(500)
	if len(bare) != len(declared) {
		t.Fatalf("declared run delivered %d responses, bare run %d", len(declared), len(bare))
	}
	for i := range bare {
		if bare[i] != declared[i] {
			t.Fatalf("response %d at %v declared vs %v bare", i, declared[i], bare[i])
		}
	}
	if declaredRounds >= bareRounds {
		t.Fatalf("turnaround declaration did not cut rounds: %d declared vs %d bare", declaredRounds, bareRounds)
	}
}

// TestShardSyncStats checks the overhead counters on a rig with one busy
// chain and one idle domain: consistent totals, a positive elision count for
// the idle domain, and coherent window extremes.
func TestShardSyncStats(t *testing.T) {
	s := NewShard()
	a := s.AddDomain("a")
	b := s.AddDomain("b")
	idle := s.AddDomain("idle")
	ab := s.MustConnect(a, b, 10)
	s.MustConnect(b, idle, 10)
	for i := Time(0); i < 20; i++ {
		at := i * 5
		a.Kernel().At(at, func() { ab.After(10, func() {}) })
	}
	s.Run(0)
	st := s.SyncStats()
	if st.Rounds == 0 || st.Rounds != s.Rounds() {
		t.Fatalf("Rounds = %d (shard says %d)", st.Rounds, s.Rounds())
	}
	if st.Events != s.EventsExecuted() || st.CrossEvents != s.CrossEvents() {
		t.Fatalf("Events/CrossEvents = %d/%d, shard says %d/%d",
			st.Events, st.CrossEvents, s.EventsExecuted(), s.CrossEvents())
	}
	if want := float64(st.Events) / float64(st.Rounds); st.EventsPerRound != want {
		t.Fatalf("EventsPerRound = %v, want %v", st.EventsPerRound, want)
	}
	// The idle domain never has work, so it must be elided every round.
	if st.ElidedDomainRounds < st.Rounds {
		t.Fatalf("ElidedDomainRounds = %d, want >= %d (idle domain skipped each round)",
			st.ElidedDomainRounds, st.Rounds)
	}
	if st.NarrowestWindow < 0 || st.WidestWindow < st.NarrowestWindow {
		t.Fatalf("window extremes incoherent: widest %v narrowest %v", st.WidestWindow, st.NarrowestWindow)
	}
}

// TestShardRingRoundsCeiling is the regression guard for the per-domain
// safe-time sync: the 4-domain ring rig must keep
// its rounds-per-event overhead far below the global-lookahead scheduler's.
// The rig currently runs ~520 events/round; the global-window loop managed
// ~3. The 200 floor leaves headroom for workload tweaks while catching any
// return to lockstep synchronization.
func TestShardRingRoundsCeiling(t *testing.T) {
	_, events, rounds := ringRig()
	if rounds == 0 {
		t.Fatal("ring rig executed no rounds")
	}
	if perRound := events / rounds; perRound < 200 {
		t.Fatalf("ring rig sync overhead regressed: %d events in %d rounds (%d events/round, floor 200)",
			events, rounds, perRound)
	}
}
