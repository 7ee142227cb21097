package bench

import (
	"strings"
	"testing"

	"snacc/internal/sim"
)

// TestModeledGolden pins the modeled values of every rig that assembles a
// SNAcc platform, not only run-to-run equality: the renderSample
// cross-section, the multi-SSD, queue-pair, DRAM-controller and HBM
// ablations, the striped case study, degraded striping and the queue sweep
// must all render byte-identically to testdata/modeled.golden. A change to bring-up order,
// host-memory addresses or event order that shifts any modeled number fails
// here. Regenerate with -update only for an intended model change.
func TestModeledGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the sample suite and the multi-SSD ablations")
	}
	var b strings.Builder
	b.WriteString(renderSample())
	b.WriteString(RenderAblationMultiSSD(AblationMultiSSD([]int{1, 2}, 16*sim.MiB)).String())
	b.WriteString(RenderAblationQP(AblationQP([]int{1, 2}, 8*sim.MiB)).String())
	b.WriteString(RenderAblationDRAM(AblationDRAM(16 * sim.MiB)).String())
	b.WriteString(RenderAblationHBM(AblationHBM(16 * sim.MiB)).String())
	b.WriteString(RenderFig6Striped(Fig6Striped([]int{1, 2}, 24)).String())
	b.WriteString(RenderStripedDegraded(StripedDegraded(3, 24*sim.MiB)).String())
	b.WriteString(RenderQueueSweep(QueueSweep([]int{1, 4}, []int{1, 8}, 4*sim.MiB)).String())
	checkGolden(t, "modeled", b.String())
}
