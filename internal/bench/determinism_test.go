package bench

import (
	"runtime"
	"strings"
	"testing"

	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// renderSample regenerates a cross-section of the experiment suite — figure
// runners, ablations with sub-rigs, and a case-study pass — and returns the
// rendered tables as one string, so byte-level comparison covers everything
// the CLI would print.
func renderSample() string {
	var b strings.Builder
	b.WriteString(RenderFig4a(Fig4a(64 * sim.MiB)).String())
	b.WriteString(RenderFig4b(Fig4b(16 * sim.MiB)).String())
	b.WriteString(RenderFig4c(Fig4c(60)).String())
	b.WriteString(RenderAblationQD(AblationQD([]int{4, 64}, 8*sim.MiB)).String())
	b.WriteString(RenderAblationGen5(AblationGen5(48 * sim.MiB)).String())
	b.WriteString(RenderFig6(Fig6(48)).String())
	b.WriteString(RenderSweep("URAM", SweepTransferSize(streamer.URAM, []int64{32 * sim.MiB, 64 * sim.MiB})).String())
	b.WriteString(RenderFaultSweep(FaultSweep([]float64{0, 2}, 16*sim.MiB)).String())
	b.WriteString(RenderCrashSweep(CrashSweep([]int64{0, 6}, 16*sim.MiB)).String())
	b.WriteString(RenderQueueSweep(QueueSweep([]int{1, 4}, []int{1, 8}, 8*sim.MiB)).String())
	b.WriteString(RenderTenantSweep(TenantSweep(100, 600)).String())
	b.WriteString(RenderServeSweep(ServeSweep([]int{10_000, 100_000}, 600, nil)).String())
	b.WriteString(RenderLatencyBreakdown(LatencyBreakdown(8 * sim.MiB)).String())
	return b.String()
}

// TestParallelDeterminism pins the engine's core guarantee: the rendered
// tables are byte-identical whether the rigs run serially, on four workers,
// or on one worker per CPU. (Also exercised under -race by the Makefile's
// race target.)
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the sample suite three times")
	}
	defer SetParallelism(1)

	SetParallelism(1)
	serial := renderSample()

	for _, j := range []int{4, runtime.NumCPU()} {
		SetParallelism(j)
		if got := renderSample(); got != serial {
			t.Fatalf("-j %d output diverged from serial:\n--- serial ---\n%s\n--- j=%d ---\n%s",
				j, serial, j, got)
		}
	}
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(1)
	SetParallelism(4)
	if got := Parallelism(); got != 4 {
		t.Fatalf("Parallelism() = %d, want 4", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Parallelism() = %d, want GOMAXPROCS", got)
	}
}
