package bench

import "testing"

// TestKernelChainRig pins the chain rig behind PerfReport's sync counters:
// it must carry real cross-domain traffic, and a rerun must execute the
// same events in the same rounds with the same per-domain digests.
func TestKernelChainRig(t *testing.T) {
	digest, st := kernelChainRun(2000)
	if st.Events == 0 || st.CrossEvents == 0 {
		t.Fatalf("chain rig executed no (cross) events: %+v", st)
	}
	if st.ElidedDomainRounds == 0 {
		t.Errorf("no domain was ever elided from a round: %+v", st)
	}
	t.Logf("%d events in %d rounds (%.1f events/round)", st.Events, st.Rounds, st.EventsPerRound)
	again, st2 := kernelChainRun(2000)
	if again != digest || st2 != st {
		t.Fatalf("rerun diverged: digest %016x vs %016x, stats %+v vs %+v", again, digest, st2, st)
	}
}
