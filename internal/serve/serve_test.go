package serve

import (
	"testing"

	"snacc/internal/ethernet"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/workload"
)

// stubBackend is a fixed-latency storage model: completions return in
// issue order per lane and direction (the streamer.IO contract) after a
// configurable service delay, so tests dial the backend anywhere from
// instant to pathologically slow without standing up the full streamer
// stack.
type stubBackend struct {
	lanes int
	delay sim.Time
}

func (b stubBackend) Lanes() int                                       { return b.lanes }
func (b stubBackend) ReadAsync(*sim.Proc, int, uint64, int64)          {}
func (b stubBackend) WriteAsync(*sim.Proc, int, uint64, int64, []byte) {}
func (b stubBackend) ReadDone(p *sim.Proc, _ int) ([]byte, error)      { p.Sleep(b.delay); return nil, nil }
func (b stubBackend) WriteDone(p *sim.Proc, _ int) error               { p.Sleep(b.delay); return nil }

func fastSpec(ops int64) workload.OpenLoopSpec {
	return workload.OpenLoopSpec{
		Clients:      64,
		RatePerSec:   2e6,
		Ops:          ops,
		ReadFraction: 0.5,
		IOBytes:      4096,
		SpanBytes:    16 * sim.MiB,
		ZipfTheta:    0.9,
		ZipfBuckets:  16,
		CloseProb:    0.1,
		Seed:         7,
	}
}

// runTier builds and runs a tier to quiescence.
func runTier(t *testing.T, cfg Config, spec workload.OpenLoopSpec, b streamer.IO) Report {
	t.Helper()
	k := sim.NewKernel()
	tier, err := New(k, cfg, spec, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := tier.Start(0); err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	return tier.Report()
}

// checkConservation asserts the request-accounting invariants every run
// must satisfy once quiescent: every arrival was sent or shed, and every
// sent capsule came back exactly once.
func checkConservation(t *testing.T, r Report) {
	t.Helper()
	if r.Generated != r.Sent+r.Dropped {
		t.Fatalf("conservation: generated %d != sent %d + dropped %d", r.Generated, r.Sent, r.Dropped)
	}
	if r.Sent != r.Completed+r.Failed+r.Unmatched {
		t.Fatalf("conservation: sent %d != completed %d + failed %d + unmatched %d",
			r.Sent, r.Completed, r.Failed, r.Unmatched)
	}
	if r.Malformed != 0 || r.Rejected != 0 || r.Unmatched != 0 {
		t.Fatalf("clean run saw malformed=%d rejected=%d unmatched=%d", r.Malformed, r.Rejected, r.Unmatched)
	}
}

func TestTierEndToEnd(t *testing.T) {
	r := runTier(t, Config{}, fastSpec(400), stubBackend{lanes: 1, delay: sim.Microsecond})
	checkConservation(t, r)
	if r.Generated != 400 {
		t.Fatalf("generated %d, want 400", r.Generated)
	}
	if r.Dropped != 0 {
		t.Fatalf("fast backend shed %d arrivals", r.Dropped)
	}
	if r.Completed != 400 {
		t.Fatalf("completed %d, want 400", r.Completed)
	}
	if r.Latency.Count() != 400 {
		t.Fatalf("latency samples %d, want 400", r.Latency.Count())
	}
	if r.BytesRead == 0 || r.BytesWritten == 0 {
		t.Fatalf("goodput bytes read=%d written=%d, want both positive", r.BytesRead, r.BytesWritten)
	}
	if r.BytesRead+r.BytesWritten != 400*4096 {
		t.Fatalf("goodput %d bytes, want %d", r.BytesRead+r.BytesWritten, 400*4096)
	}
	if r.GoodputMBps() <= 0 {
		t.Fatalf("goodput rate %.1f", r.GoodputMBps())
	}
	if r.PeakConns == 0 || r.PeakConns > 64 {
		t.Fatalf("peak conns %d outside (0, 64]", r.PeakConns)
	}
	if r.Opens == 0 || r.Closes == 0 {
		t.Fatalf("churn: opens=%d closes=%d, want both positive", r.Opens, r.Closes)
	}
	if r.ConnStateBytes <= 0 {
		t.Fatalf("conn state bytes %d", r.ConnStateBytes)
	}
	if r.Elapsed <= 0 {
		t.Fatalf("elapsed %v", r.Elapsed)
	}
}

// TestBackpressureBounds is the tier's load-shedding invariant: with a
// backend orders of magnitude slower than the arrival rate, the dispatch
// queue and the connection table stay under their configured bounds, pause
// frames actually fire, and the overload is shed at the open-loop client —
// counted as drops — instead of buffered without limit. Runs under -race
// via the Makefile's race target.
func TestBackpressureBounds(t *testing.T) {
	spec := workload.OpenLoopSpec{
		Clients:      256,
		RatePerSec:   1e8, // ~10 ns between arrivals: hopeless overload
		Ops:          4000,
		ReadFraction: 0.5,
		IOBytes:      512,
		SpanBytes:    16 * sim.MiB,
		ZipfTheta:    0.9,
		ZipfBuckets:  16,
		Seed:         11,
	}
	ecfg := ethernet.DefaultConfig()
	ecfg.RxFIFOBytes = 64 * sim.KiB
	cfg := Config{
		DispatchDepth: 32,
		DispatchBatch: 8,
		FrameBatch:    1, // one capsule per frame, so the tx queue meters capsules
		ClientBacklog: 128,
		LaneWindow:    4,
		Ethernet:      ecfg,
	}
	slow := stubBackend{lanes: 1, delay: 100 * sim.Microsecond}

	r := runTier(t, cfg, spec, slow)
	if r.Generated != r.Sent+r.Dropped {
		t.Fatalf("conservation: generated %d != sent %d + dropped %d", r.Generated, r.Sent, r.Dropped)
	}
	if r.Sent != r.Completed+r.Failed+r.Unmatched {
		t.Fatalf("conservation: sent %d != completed %d + failed %d + unmatched %d",
			r.Sent, r.Completed, r.Failed, r.Unmatched)
	}
	if r.PeakDispatch > r.DispatchCap {
		t.Fatalf("dispatch queue peaked at %d, bound %d", r.PeakDispatch, r.DispatchCap)
	}
	if r.PeakConns > r.ConnCapacity {
		t.Fatalf("connection table peaked at %d, capacity %d", r.PeakConns, r.ConnCapacity)
	}
	if r.PausesSent == 0 {
		t.Fatal("overload never tripped a pause frame")
	}
	if r.PausesHonored == 0 {
		t.Fatal("client never honored a pause")
	}
	if r.Dropped == 0 {
		t.Fatal("overload shed nothing — backlog must have grown unboundedly")
	}
	if r.FramesDropped != 0 {
		t.Fatalf("%d frames dropped in the MACs — shedding must happen above the link", r.FramesDropped)
	}
}

// TestTierDeterminism pins the determinism contract: the same spec run
// twice yields bit-identical reports (Report is comparable, so == covers
// every field including the latency histogram).
func TestTierDeterminism(t *testing.T) {
	spec := fastSpec(300)
	b := stubBackend{lanes: 1, delay: 2 * sim.Microsecond}
	first := runTier(t, Config{}, spec, b)
	checkConservation(t, first)
	if again := runTier(t, Config{}, spec, b); again != first {
		t.Fatalf("repeat run diverged:\n%+v\n%+v", first, again)
	}
}

// TestTierTenantLanes routes a multi-tenant spec across a lane-per-tenant
// backend.
func TestTierTenantLanes(t *testing.T) {
	spec := fastSpec(300)
	spec.Tenants = 4
	r := runTier(t, Config{}, spec, stubBackend{lanes: 4, delay: sim.Microsecond})
	checkConservation(t, r)
	if r.Completed != 300 {
		t.Fatalf("completed %d, want 300", r.Completed)
	}
}

func TestTierConfigErrors(t *testing.T) {
	k := sim.NewKernel()
	good := fastSpec(10)
	b := stubBackend{lanes: 1, delay: 0}

	if _, err := New(k, Config{}, good, nil); err == nil {
		t.Fatal("nil backend accepted")
	}
	multi := good
	multi.Tenants = 4
	if _, err := New(k, Config{}, multi, b); err == nil {
		t.Fatal("4 tenants over a 1-lane backend accepted")
	}
	bad := good
	bad.Clients = 0
	if _, err := New(k, Config{}, bad, b); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := New(k, Config{DispatchBatch: 99, DispatchDepth: 8}, good, b); err == nil {
		t.Fatal("batch > depth accepted")
	}
	if _, err := New(k, Config{DispatchDepth: -1}, good, b); err == nil {
		t.Fatal("negative depth accepted")
	}

	tier, err := New(k, Config{}, good, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := tier.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := tier.Start(0); err == nil {
		t.Fatal("double Start accepted")
	}
	k.Run(0)
}
