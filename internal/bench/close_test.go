package bench

import (
	"runtime"
	"testing"

	"snacc/internal/sim"
)

// settle collects garbage until sync.Pool victim caches are empty too.
func settle() {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
}

// TestRunnersCloseKernels checks that an ablation and a case-study pass stop
// every process they start: each rig's parked daemons are coroutines, and a
// runner that drops its kernel without Close keeps their goroutines for the
// life of the program.
func TestRunnersCloseKernels(t *testing.T) {
	settle()
	before := runtime.NumGoroutine()
	AblationQP([]int{2}, 4*sim.MiB)
	Fig6(4)
	settle()
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("%d goroutines after the runs, want %d", got, before)
	}
}
