package streamer_test

// Span-lifecycle property tests: every NVMe command's span closes exactly
// once with monotone stage timestamps — under clean operation and under
// every failure mode the fault and crash machinery can produce. These are
// correctness oracles for the whole recovery ladder, not just the tracer:
// a span that never closes is a command the Streamer lost, and a
// non-monotone span is an attempt-mixing bug in resubmission.

import (
	"testing"

	"snacc/internal/fault"
	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// tracedRig is rig with the span tracer wired the way snacc.NewSystem does
// it, including the device-side fetch/execute events.
func tracedRig(t *testing.T, v streamer.Variant, mut func(*streamer.Config)) (*sim.Kernel, *streamer.Client, *nvme.Device, *obs.Tracer) {
	t.Helper()
	tr := obs.NewTracer(1 << 16)
	k, sts, devs := bootPairs(t, 1, v, false, tr, mut)
	return k, streamer.NewClient(sts[0]), devs[0], tr
}

// checkSpanInvariants asserts the core properties over a drained workload.
func checkSpanInvariants(t *testing.T, tr *obs.Tracer) {
	t.Helper()
	if tr.Opened() == 0 {
		t.Fatal("no spans traced")
	}
	if tr.Opened() != tr.Closed() {
		t.Errorf("span leak: opened %d, closed %d", tr.Opened(), tr.Closed())
	}
	if tr.DoubleCloses() != 0 {
		t.Errorf("%d spans closed twice (a slot retired twice)", tr.DoubleCloses())
	}
	for _, sp := range tr.Spans() {
		if !sp.Monotone() {
			t.Errorf("span %d (%s %#x+%d): non-monotone stages %v (annots %v)",
				sp.ID, opName(sp), sp.Addr, sp.Len, sp.Stages, sp.Annots)
		}
		if sp.Stages[obs.StageAccepted] < 0 || sp.Stages[obs.StageRetired] < 0 {
			t.Errorf("span %d missing accepted/retired timestamps: %v", sp.ID, sp.Stages)
		}
	}
}

func opName(sp obs.Span) string {
	if sp.Write {
		return "write"
	}
	return "read"
}

// TestSpanCleanPathCoversAllStages pins the happy path: with no faults,
// every span of every variant (in-order and out-of-order) records all eight
// pipeline stages.
func TestSpanCleanPathCoversAllStages(t *testing.T) {
	for _, v := range variants() {
		for _, ooo := range []bool{false, true} {
			name := v.String()
			if ooo {
				name += "/ooo"
			}
			t.Run(name, func(t *testing.T) {
				k, c, _, tr := tracedRig(t, v, func(cfg *streamer.Config) { cfg.OutOfOrder = ooo })
				k.Spawn("pe", func(p *sim.Proc) {
					mustWrite(t, p, c, 0, 2*sim.MiB+8192, nil)
					mustRead(t, p, c, 0, 2*sim.MiB+8192)
				})
				k.Run(0)
				checkSpanInvariants(t, tr)
				spans := tr.Spans()
				if len(spans) != 6 { // 3 write pieces + 3 read pieces
					t.Fatalf("retained %d spans, want 6", len(spans))
				}
				for _, sp := range spans {
					for st := obs.Stage(0); st < obs.NumStages; st++ {
						if sp.Stages[st] < 0 {
							t.Errorf("span %d (%s): stage %v unmarked on the clean path", sp.ID, opName(sp), st)
						}
					}
					if sp.Status != nvme.StatusSuccess || len(sp.Annots) != 0 {
						t.Errorf("span %d: status %#x annots %v on the clean path", sp.ID, sp.Status, sp.Annots)
					}
				}
				if tr.LateEvents() != 0 {
					t.Errorf("late events on the clean path: %d", tr.LateEvents())
				}
			})
		}
	}
}

// TestSpanInvariantsFaultSweep covers the per-command recovery machinery:
// retryable error statuses and dropped CQEs at aggressive rates, with the
// watchdog and the retry stage resolving every command.
func TestSpanInvariantsFaultSweep(t *testing.T) {
	for _, rate := range []float64{0.05, 0.25} {
		t.Run(sim.Time(int64(rate*100)).String(), func(t *testing.T) {
			k, c, dev, tr := tracedRig(t, streamer.URAM, recovery)
			in := fault.NewInjector(7)
			in.Add(fault.Rule{Name: "rd-err", Kind: fault.StatusError, Opcode: nvme.OpRead,
				Probability: rate, Status: nvme.StatusDataTransferError})
			in.Add(fault.Rule{Name: "wr-err", Kind: fault.StatusError, Opcode: nvme.OpWrite,
				Probability: rate, Status: nvme.StatusDataTransferError})
			in.Add(fault.Rule{Name: "cqe-loss", Kind: fault.DropCQE, Opcode: fault.OpAny,
				Probability: rate / 2})
			in.Attach(dev)
			k.Spawn("pe", func(p *sim.Proc) {
				for i := 0; i < 4; i++ {
					addr := uint64(i) * uint64(4*sim.MiB)
					c.WriteErr(p, addr, 4*sim.MiB, nil)
					c.ReadErr(p, addr, 4*sim.MiB)
				}
			})
			k.Run(0)
			checkSpanInvariants(t, tr)
			if in.Injected() == 0 {
				t.Fatal("sweep injected nothing; rates too low to exercise recovery")
			}
			// Retried spans must carry their annotations.
			if c.Streamer().CommandRetries() > 0 {
				var annotated int
				for _, sp := range tr.Spans() {
					if len(sp.Annots) > 0 {
						annotated++
					}
				}
				if annotated == 0 {
					t.Error("retries happened but no span carries an annotation")
				}
			}
		})
	}
}

// TestSpanInvariantsCrashLadder drives the full trip→reset→replay ladder
// with a recurring controller crash and checks that replayed spans stay
// monotone (the resubmission must clear the pre-crash device-path marks).
func TestSpanInvariantsCrashLadder(t *testing.T) {
	k, c, dev, tr := tracedRig(t, streamer.OnboardDRAM, crashRecovery)
	in := fault.NewInjector(7)
	in.Add(fault.Rule{Name: "crash", Kind: fault.CrashCtrl, Opcode: fault.OpAny, Nth: 8})
	in.Attach(dev)
	k.Spawn("pe", func(p *sim.Proc) {
		c.WriteErr(p, 0, 12*sim.MiB, nil)
		c.ReadErr(p, 0, 12*sim.MiB)
	})
	k.Run(0)
	checkSpanInvariants(t, tr)
	st := c.Streamer()
	if st.BreakerTrips() == 0 || st.CommandsReplayed() == 0 {
		t.Fatalf("ladder did not run: trips=%d replayed=%d", st.BreakerTrips(), st.CommandsReplayed())
	}
	var replayed int
	for _, sp := range tr.Spans() {
		for _, a := range sp.Annots {
			if a.Kind == obs.AnnotReplay {
				replayed++
				break
			}
		}
	}
	if replayed == 0 {
		t.Error("commands were replayed but no span carries AnnotReplay")
	}
	var trips, resets int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case obs.AnnotBreakerTrip:
			trips++
		case obs.AnnotReset:
			resets++
		}
	}
	if int64(trips) != st.BreakerTrips() || int64(resets) != st.ControllerResets() {
		t.Errorf("event timeline: %d trips / %d resets, streamer says %d / %d",
			trips, resets, st.BreakerTrips(), st.ControllerResets())
	}
}

// TestSpanInvariantsControllerDeath surprise-removes the controller: every
// in-flight and subsequent span must still close, terminally, with the
// death and fail-fast annotations in place.
func TestSpanInvariantsControllerDeath(t *testing.T) {
	k, c, dev, tr := tracedRig(t, streamer.URAM, crashRecovery)
	in := fault.NewInjector(7)
	in.Add(fault.Rule{Name: "remove", Kind: fault.RemoveCtrl, Opcode: fault.OpAny, Nth: 6, Count: 1})
	in.Attach(dev)
	k.Spawn("pe", func(p *sim.Proc) {
		c.WriteErr(p, 0, 16*sim.MiB, nil)
	})
	k.Run(0)
	checkSpanInvariants(t, tr)
	if !c.Streamer().Dead() {
		t.Fatal("controller should be dead")
	}
	var terminal, annotated int
	for _, sp := range tr.Spans() {
		if sp.Status == nvme.StatusControllerUnavailable {
			terminal++
		}
		for _, a := range sp.Annots {
			if a.Kind == obs.AnnotDead || a.Kind == obs.AnnotFailFast {
				annotated++
				break
			}
		}
	}
	if terminal == 0 || annotated == 0 {
		t.Errorf("death left no trace: %d terminal statuses, %d annotated spans", terminal, annotated)
	}
	var death int
	for _, ev := range tr.Events() {
		if ev.Kind == obs.AnnotDead {
			death++
		}
	}
	if death != 1 {
		t.Errorf("death events = %d, want 1", death)
	}
}

// TestSpanInvariantsHangRecovery freezes the command engine mid-workload;
// the hang resolves (revive or breaker), and every span must still close.
func TestSpanInvariantsHangRecovery(t *testing.T) {
	k, c, dev, tr := tracedRig(t, streamer.URAM, crashRecovery)
	in := fault.NewInjector(7)
	in.Add(fault.Rule{Name: "hang", Kind: fault.HangCtrl, Opcode: fault.OpAny,
		Nth: 4, Count: 1, Delay: 2 * sim.Millisecond})
	in.Attach(dev)
	k.Spawn("pe", func(p *sim.Proc) {
		c.WriteErr(p, 0, 8*sim.MiB, nil)
		c.ReadErr(p, 0, 8*sim.MiB)
	})
	k.Run(0)
	checkSpanInvariants(t, tr)
	if in.Injected() == 0 {
		t.Fatal("hang never fired")
	}
}

// TestSpanInvariantsDegradedStriping removes one member of a 2-wide array
// mid-workload. Both members share one tracer (one kernel, so the
// single-threaded discipline holds) and the invariants must hold across the
// healthy member's traffic and the dead member's fail-fast spans alike.
func TestSpanInvariantsDegradedStriping(t *testing.T) {
	tr := obs.NewTracer(1 << 16)
	k, sts, devs := bootPairs(t, 2, streamer.URAM, false, tr, crashRecovery)
	s := streamer.NewStriped(k, sts, sim.MiB)
	in := fault.NewInjector(7)
	in.Add(fault.Rule{Name: "remove", Kind: fault.RemoveCtrl, Opcode: fault.OpAny, Nth: 4, Count: 1})
	in.Attach(devs[1])
	k.Spawn("pe", func(p *sim.Proc) {
		s.WriteErr(p, 0, 16*sim.MiB, nil)
		s.ReadErr(p, 0, 16*sim.MiB)
	})
	k.Run(0)
	checkSpanInvariants(t, tr)
	if !s.Member(1).Streamer().Dead() {
		t.Fatal("member 1 should be dead")
	}
	if s.DegradedReads() == 0 && s.DegradedWrites() == 0 {
		t.Error("no degraded operations recorded despite a dead member")
	}
}
