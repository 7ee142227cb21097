package snacc

import (
	"bytes"
	"fmt"
	"testing"

	"snacc/internal/sim"
)

// TestRandomizedDataIntegrityCrashRecovery is the crash-and-recover variant
// of TestRandomizedDataIntegrity: the controller crashes at every Nth
// executed command mid-stream, the recovery ladder resets it and replays
// the in-flight window, and every read must still match the byte-exact
// shadow across all three buffer variants. Each variant also runs with the
// submission path sharded over four coalescing queue pairs, where the
// replay must reconstruct every queue's ring in global submission order and
// the Nth-command crash rule keeps counting across queues.
func TestRandomizedDataIntegrityCrashRecovery(t *testing.T) {
	for _, v := range []Variant{URAM, OnboardDRAM, HostDRAM} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			runCrashIntegrity(t, Options{Variant: v})
		})
		t.Run(v.String()+"-4q", func(t *testing.T) {
			runCrashIntegrity(t, Options{Variant: v, IOQueues: 4, DoorbellBatch: 8})
		})
	}
}

func runCrashIntegrity(t *testing.T, opts Options) {
	fn := true
	opts.Functional = &fn
	opts.Faults = &FaultOptions{CrashEveryNCmds: 19}
	sys := MustNewSystem(opts)
	const span = 4 << 20
	shadow := make([]byte, span)
	rng := sim.NewRand(uint64(opts.Variant) + 303)
	var failure string
	sys.Execute(func(h *Handle) {
		for op := 0; op < 120; op++ {
			n := (rng.Int63n(96) + 1) * 512
			addr := uint64(rng.Int63n((span-n)/512)) * 512
			if rng.Float64() < 0.55 {
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rng.Int63n(256))
				}
				h.Write(addr, data)
				copy(shadow[addr:], data)
			} else {
				got := mustRead(t, h, addr, n)
				want := shadow[addr : addr+uint64(n)]
				if !bytes.Equal(got, want) {
					failure = fmt.Sprintf("op %d: read %d@%#x diverged from shadow (first diff at %d)",
						op, n, addr, firstDiff(got, want))
					return
				}
			}
		}
		got := mustRead(t, h, 0, span)
		if !bytes.Equal(got, shadow) {
			failure = fmt.Sprintf("final readback diverged at byte %d", firstDiff(got, shadow))
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
	st := sys.Stats()
	if st.ControllerResets == 0 || st.BreakerTrips == 0 {
		t.Fatalf("trips/resets = %d/%d; the workload crashed no controller, test is vacuous",
			st.BreakerTrips, st.ControllerResets)
	}
	if st.CommandsReplayed == 0 {
		t.Error("no commands replayed across the injected crashes")
	}
	if st.ControllerDead {
		t.Error("controller declared dead despite a working reset path")
	}
	if st.CommandAborts != 0 {
		t.Errorf("aborts = %d across recovered crashes, want 0", st.CommandAborts)
	}
}

// TestCrashRecoveryStatsReported pins the new Stats plumbing end to end:
// one injected crash must show up as a trip, a reset, a replayed window and
// a non-zero time-to-recover.
func TestCrashRecoveryStatsReported(t *testing.T) {
	sys := MustNewSystem(Options{Faults: &FaultOptions{CrashEveryNCmds: 8}})
	sys.Execute(func(h *Handle) {
		h.WriteTimed(0, 16*1<<20)
	})
	st := sys.Stats()
	if st.BreakerTrips == 0 || st.ControllerResets == 0 {
		t.Fatalf("trips/resets = %d/%d, want both > 0", st.BreakerTrips, st.ControllerResets)
	}
	if st.CommandsReplayed == 0 {
		t.Error("CommandsReplayed = 0 across a mid-burst crash")
	}
	if st.RecoveryTimeNs <= 0 {
		t.Error("RecoveryTimeNs not accounted")
	}
	if st.ControllerDead {
		t.Error("controller marked dead after successful recovery")
	}
	if st.FaultsInjected == 0 {
		t.Error("injector reported no firings")
	}
}

// TestCrashEveryCommandRejected: N=1 can never make forward progress, so
// the constructor must refuse it rather than hand back a livelocking
// system.
func TestCrashEveryCommandRejected(t *testing.T) {
	if _, err := NewSystem(Options{Faults: &FaultOptions{CrashEveryNCmds: 1}}); err == nil {
		t.Fatal("CrashEveryNCmds = 1 accepted")
	}
}

// TestSurpriseRemovalTerminal: a removed controller exhausts its resets and
// surfaces as a terminal error flag plus ControllerDead — never a hang.
func TestSurpriseRemovalTerminal(t *testing.T) {
	sys := MustNewSystem(Options{Faults: &FaultOptions{RemoveAtCommand: 4}})
	sawErr := false
	sys.Execute(func(h *Handle) {
		if err := h.Write(0, make([]byte, 8<<20)); err != nil {
			sawErr = true
		}
	})
	if !sawErr {
		t.Error("write across a surprise removal reported no error")
	}
	st := sys.Stats()
	if !st.ControllerDead {
		t.Error("removed controller not reported dead")
	}
	if st.ControllerResets == 0 {
		t.Error("no reset attempts against the removed controller")
	}
}
