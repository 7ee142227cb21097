package casestudy

import (
	"bytes"
	"fmt"
	"testing"

	"snacc/internal/imagestream"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// smallConfig shrinks the stream for fast tests.
func smallConfig(images int) Config {
	cfg := DefaultConfig()
	cfg.Images = images
	cfg.Source.Count = images
	return cfg
}

func TestFigure6Shape(t *testing.T) {
	// Figure 6: Host DRAM and SPDK lead (~6.1 GB/s, ~676 fps at 9 MB
	// frames), URAM and on-board DRAM track their sequential-write limits,
	// the GPU reference lands below SPDK.
	cfg := smallConfig(192)
	results := map[string]Result{
		"uram": RunSNAcc(streamer.URAM, cfg),
		"ob":   RunSNAcc(streamer.OnboardDRAM, cfg),
		"host": RunSNAcc(streamer.HostDRAM, cfg),
		"spdk": RunSPDK(cfg),
		"gpu":  RunGPU(cfg),
	}
	for name, r := range results {
		t.Logf("%-5s %-16s %.2f GB/s %.0f fps (pauses=%d, pcie=%.1f GB)",
			name, r.Variant, r.GBps(), r.FPS(), r.EthernetPauses, float64(r.PCIeTotal)/1e9)
		if r.Errors != 0 {
			t.Errorf("%s reported %d errors", name, r.Errors)
		}
		if r.FramesDropped != 0 {
			t.Errorf("%s dropped %d Ethernet frames despite flow control", name, r.FramesDropped)
		}
	}
	// Comparative claims.
	if !(results["host"].GBps() > results["uram"].GBps() && results["uram"].GBps() > results["ob"].GBps()) {
		t.Errorf("SNAcc ordering violated: host %.2f, uram %.2f, ob %.2f",
			results["host"].GBps(), results["uram"].GBps(), results["ob"].GBps())
	}
	if results["gpu"].GBps() >= results["spdk"].GBps() {
		t.Errorf("GPU (%.2f) should trail SPDK (%.2f)", results["gpu"].GBps(), results["spdk"].GBps())
	}
	// Absolute bands (generous; EXPERIMENTS.md records exact values).
	check := func(name string, lo, hi float64) {
		if g := results[name].GBps(); g < lo || g > hi {
			t.Errorf("%s = %.2f GB/s, want [%.1f, %.1f]", name, g, lo, hi)
		}
	}
	check("host", 5.8, 6.4)
	check("spdk", 5.9, 6.5)
	check("uram", 5.1, 5.7)
	check("ob", 4.6, 5.3)
	check("gpu", 5.4, 6.0)
}

func TestFigure7Shape(t *testing.T) {
	// Figure 7: URAM and on-board DRAM move each byte over PCIe once
	// (least traffic); host DRAM and SPDK twice; GPU the most.
	cfg := smallConfig(64)
	uram := RunSNAcc(streamer.URAM, cfg)
	ob := RunSNAcc(streamer.OnboardDRAM, cfg)
	host := RunSNAcc(streamer.HostDRAM, cfg)
	spdk := RunSPDK(cfg)
	gpu := RunGPU(cfg)
	payload := cfg.imageWriteBytes() * int64(cfg.Images)

	for _, r := range []Result{uram, ob, host, spdk, gpu} {
		t.Logf("%-16s pcie=%.2f GB (%.2fx payload)", r.Variant,
			float64(r.PCIeTotal)/1e9, float64(r.PCIeTotal)/float64(payload))
	}
	near := func(r Result, factor, tol float64) bool {
		x := float64(r.PCIeTotal) / float64(payload)
		return x > factor-tol && x < factor+tol
	}
	if !near(uram, 1, 0.15) || !near(ob, 1, 0.15) {
		t.Errorf("URAM/on-board traffic should be ~1x payload: %.2fx / %.2fx",
			float64(uram.PCIeTotal)/float64(payload), float64(ob.PCIeTotal)/float64(payload))
	}
	if !near(host, 2, 0.2) || !near(spdk, 2, 0.2) {
		t.Errorf("host-DRAM/SPDK traffic should be ~2x payload: %.2fx / %.2fx",
			float64(host.PCIeTotal)/float64(payload), float64(spdk.PCIeTotal)/float64(payload))
	}
	if gpu.PCIeTotal <= spdk.PCIeTotal || gpu.PCIeTotal <= host.PCIeTotal {
		t.Error("GPU must generate the most PCIe traffic")
	}
	if uram.PCIeTotal >= host.PCIeTotal {
		t.Error("URAM must generate less PCIe traffic than host DRAM")
	}
}

func TestAutonomyCPULoad(t *testing.T) {
	// §6.3: the SNAcc variants leave the CPU idle after setup, while the
	// SPDK and GPU variants burn a polling core.
	cfg := smallConfig(48)
	sn := RunSNAcc(streamer.HostDRAM, cfg)
	sp := RunSPDK(cfg)
	if sn.BusyPolling {
		t.Error("SNAcc must not busy-poll a host core")
	}
	if !sp.BusyPolling {
		t.Error("the SPDK variant's data-path thread busy-polls by design")
	}
	if sn.HostCPUBusy != 0 {
		t.Errorf("SNAcc accumulated %v of data-path CPU time", sn.HostCPUBusy)
	}
	if sp.HostCPUBusy == 0 {
		t.Error("SPDK variant accumulated no CPU time")
	}
}

func TestFlowControlEngages(t *testing.T) {
	// The 12.5 GB/s link always outruns the ~6 GB/s storage path, so pause
	// frames must throttle the transmitter in every variant (§4.7).
	cfg := smallConfig(48)
	r := RunSNAcc(streamer.URAM, cfg)
	if r.EthernetPauses == 0 {
		t.Error("Ethernet flow control never engaged")
	}
}

func TestFunctionalEndToEnd(t *testing.T) {
	// With real payloads, every image and its classification record must
	// land on the SSD intact. Uses tiny images to keep it fast.
	cfg := smallConfig(6)
	cfg.Functional = true
	cfg.Source.Width = 512
	cfg.Source.Height = 256
	cfg.Source.Channels = 3
	verifySNAccContent(t, cfg, streamer.URAM)
}

func TestFunctionalAllVariants(t *testing.T) {
	for _, v := range []streamer.Variant{streamer.OnboardDRAM, streamer.HostDRAM} {
		cfg := smallConfig(4)
		cfg.Functional = true
		cfg.Source.Width = 256
		cfg.Source.Height = 128
		cfg.Source.Channels = 3
		verifySNAccContent(t, cfg, v)
	}
}

func TestExactFPSRelation(t *testing.T) {
	// fps = bandwidth / bytes-per-image must hold by construction; the
	// paper's 6.1 GB/s ↔ 676 fps uses the same arithmetic.
	cfg := smallConfig(48)
	r := RunSNAcc(streamer.HostDRAM, cfg)
	wantFPS := r.GBps() * 1e9 / float64(cfg.imageWriteBytes())
	if d := r.FPS() - wantFPS; d > 1 || d < -1 {
		t.Errorf("fps %.1f inconsistent with bandwidth-derived %.1f", r.FPS(), wantFPS)
	}
}

var _ = fmt.Sprintf

// verifySNAccContent runs a functional SNAcc case study and checks every
// image and record on the SSD media byte for byte.
func verifySNAccContent(t *testing.T, cfg Config, v streamer.Variant) {
	t.Helper()
	res, dev := runSNAcc(v, cfg)
	if res.Errors != 0 {
		t.Fatalf("%s: %d errors", v, res.Errors)
	}
	perImage := cfg.imageWriteBytes()
	imgBytes := imagestreamAt(cfg, 0).Bytes()
	for i := 0; i < cfg.Images; i++ {
		img := imagestreamAt(cfg, i)
		want := make([]byte, imgBytes)
		imagestream.Synthesize(img, cfg.Seed, want)
		got := make([]byte, imgBytes)
		dev.NAND().Store().ReadBytes(uint64(int64(i)*perImage), got)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: image %d corrupted on media", v, i)
		}
		rec := make([]byte, cfg.RecordBytes)
		dev.NAND().Store().ReadBytes(uint64(int64(i+1)*perImage)-uint64(cfg.RecordBytes), rec)
		wantRec := buildRecord(img, want, cfg.RecordBytes)
		if !bytes.Equal(rec, wantRec) {
			t.Fatalf("%s: record %d corrupted on media (%q vs %q)", v, i, rec[:32], wantRec[:32])
		}
	}
}

func TestCaseStudyThroughSwitch(t *testing.T) {
	// §4.7: flow control "also works with intermediary switches, which will
	// first pause locally before propagating the pause request further".
	// The end-to-end bandwidth must match the direct topology with no
	// frame loss anywhere.
	direct := smallConfig(48)
	viaSwitch := smallConfig(48)
	viaSwitch.UseSwitch = true
	a := RunSNAcc(streamer.HostDRAM, direct)
	b := RunSNAcc(streamer.HostDRAM, viaSwitch)
	if b.FramesDropped != 0 {
		t.Fatalf("%d frames dropped behind the switch", b.FramesDropped)
	}
	rel := (a.GBps() - b.GBps()) / a.GBps()
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.05 {
		t.Fatalf("switch changed bandwidth by %.1f%% (%.2f vs %.2f)", rel*100, a.GBps(), b.GBps())
	}
	if b.EthernetPauses == 0 {
		t.Fatal("pause propagation never reached the transmitter")
	}
}

func TestCaseStudyWithDeviceFaults(t *testing.T) {
	// Injected NVMe failures must surface in the result's error counter
	// while the pipeline still terminates.
	cfg := smallConfig(16)
	res, dev := runSNAccWithFaults(cfg, streamer.URAM, 5)
	if res.Errors == 0 {
		t.Fatal("injected faults not reported")
	}
	if dev.Errors() == 0 {
		t.Fatal("device error counter untouched")
	}
	if res.Images != cfg.Images {
		t.Fatalf("pipeline did not finish: %d of %d images", res.Images, cfg.Images)
	}
}

func TestStripedCaseStudySaturatesNetwork(t *testing.T) {
	// §7's end goal: with multiple SSDs the storage side stops being the
	// bottleneck and the case study pushes toward the 100 G line rate
	// (~12.2 GB/s of payload after framing).
	cfg := smallConfig(96)
	one := RunSNAccStriped(1, cfg)
	two := RunSNAccStriped(2, cfg)
	three := RunSNAccStriped(3, cfg)
	if one.Errors+two.Errors+three.Errors != 0 {
		t.Fatalf("errors: %d/%d/%d", one.Errors, two.Errors, three.Errors)
	}
	if one.GBps() > 6.2 {
		t.Fatalf("single-SSD striped run %.2f GB/s; should be SSD-limited", one.GBps())
	}
	if two.GBps() < 1.8*one.GBps() {
		t.Fatalf("2-SSD striped run %.2f GB/s; should nearly double %.2f", two.GBps(), one.GBps())
	}
	// With three SSDs the storage side exceeds what 100 G delivers: the
	// run becomes network-limited just below the 12.2 GB/s payload rate.
	if three.GBps() < 11.0 || three.GBps() > 12.5 {
		t.Fatalf("3-SSD striped run %.2f GB/s; should be network-limited near 12.2", three.GBps())
	}
	t.Logf("striped case study: %.2f → %.2f → %.2f GB/s (3 SSDs hit the 100G link)",
		one.GBps(), two.GBps(), three.GBps())
}

func TestImageLatencyAccounting(t *testing.T) {
	// End-to-end image latency (transmit → persisted) must be bounded and
	// sensible: at least the storage time of one ~9 MB image, and well
	// under a second even with flow-control stalls.
	cfg := smallConfig(48)
	res, _ := runSNAcc(streamer.HostDRAM, cfg)
	if res.ImageLatency.Count() != cfg.Images {
		t.Fatalf("latency samples = %d, want %d", res.ImageLatency.Count(), cfg.Images)
	}
	mean := res.ImageLatency.Mean()
	if mean < 2*sim.Millisecond {
		t.Fatalf("mean image latency %v implausibly low", mean)
	}
	if res.ImageLatency.Percentile(99) > 500*sim.Millisecond {
		t.Fatalf("p99 image latency %v implausibly high", res.ImageLatency.Percentile(99))
	}
	if res.ImageLatency.Percentile(99) < mean {
		t.Fatal("p99 below mean")
	}
}
