// Command snacctrace replays the paper's §5.2 Integrated-Logic-Analyzer
// methodology in simulation: it attaches a transaction tracer to the FPGA
// card's PCIe boundary, runs a Streamer workload, and prints both the raw
// transaction trace and the derived analysis (request inter-arrival gaps,
// completer service latency, implied bandwidth) that the paper used to
// attribute the URAM write ceiling to PCIe P2P rather than the Streamer.
//
// A second mode, -spans, switches from the boundary view to the per-command
// view: it runs the same workload with the span tracer enabled and prints
// per-command waterfalls (every pipeline stage, timestamped) and the
// stage-latency percentile table derived from all traced commands.
//
// Usage:
//
//	snacctrace [-variant uram|obdram|hostdram] [-op write|read]
//	           [-size MiB] [-events N]
//	snacctrace -spans [-variant ...] [-op ...] [-size MiB] [-n N]
package main

import (
	"flag"
	"fmt"
	"os"

	"snacc"
	"snacc/internal/bench"
	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

const ssdBAR = 0x10_0000_0000

func main() {
	variant := flag.String("variant", "uram", "streamer variant: uram, obdram, hostdram")
	op := flag.String("op", "write", "workload: write or read (1 MiB sequential commands)")
	sizeMiB := flag.Int64("size", 64, "transfer volume (MiB)")
	events := flag.Int("events", 24, "raw trace events to print")
	spans := flag.Bool("spans", false, "trace per-command spans instead of the PCIe boundary")
	nspans := flag.Int("n", 4, "command waterfalls to print in -spans mode")
	flag.Parse()

	var v streamer.Variant
	switch *variant {
	case "uram":
		v = streamer.URAM
	case "obdram":
		v = streamer.OnboardDRAM
	case "hostdram":
		v = streamer.HostDRAM
	default:
		fmt.Fprintf(os.Stderr, "unknown variant %q\n", *variant)
		os.Exit(2)
	}
	switch *op {
	case "write", "read":
	default:
		fmt.Fprintf(os.Stderr, "unknown op %q (want write or read)\n", *op)
		os.Exit(2)
	}

	if *spans {
		runSpans(v, *op, *sizeMiB, *nspans)
		return
	}

	// A private rig rather than snacc.NewSystem: the facade drains the
	// kernel after bring-up before the workload starts, which would shift
	// every printed timestamp by the tail of the admin traffic.
	k := sim.NewKernel()
	defer k.Close()
	pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
	dev := pl.AddSSD(nvme.DefaultConfig("ssd0", ssdBAR))
	st := pl.AddStreamer(streamer.DefaultConfig("snacc0", 0, v))
	pl.Bind(dev, st)
	tr := pl.TraceBoundary(st)

	var bw float64
	k.Spawn("main", func(p *sim.Proc) {
		if err := pl.Init(p); err != nil {
			panic(err)
		}
		c := streamer.NewClient(st)
		if *op == "read" {
			// Precondition, then trace the read path.
			streamer.SeqWrite(p, c, 0, *sizeMiB*sim.MiB)
			tr.Reset()
			bw = streamer.SeqRead(p, c, 0, *sizeMiB*sim.MiB).GBps()
		} else {
			bw = streamer.SeqWrite(p, c, 0, *sizeMiB*sim.MiB).GBps()
		}
	})
	k.Run(0)

	fmt.Printf("workload: %s %s, %d MiB → %.2f GB/s\n\n", *variant, *op, *sizeMiB, bw)

	evs := tr.Events()
	fmt.Printf("captured %d transactions at the staging-buffer boundary\n", len(evs))
	fmt.Println("first events:")
	for _, e := range evs[:min(*events, len(evs))] {
		fmt.Printf("  %12v  %-9s addr=%#x len=%d\n", e.At, e.Kind, e.Addr, e.Len)
	}

	fmt.Println("\nanalysis (the paper's §5.2 ILA reasoning):")
	if reqs := tr.OfKind(pcie.TraceReadReq); len(reqs) > 1 {
		gap := tr.MeanGap(pcie.TraceReadReq)
		fmt.Printf("  controller read requests: %d, mean gap %v → implied fetch BW %.2f GB/s\n",
			len(reqs), gap, 4096/gap.Seconds()/1e9)
		svc := tr.ServiceLatency()
		fmt.Printf("  our completer's service latency: mean %v, p99 %v (\"our end responds immediately\")\n",
			svc.Mean(), svc.Percentile(99))
	}
	if wrs := tr.OfKind(pcie.TraceWriteIn); len(wrs) > 1 {
		gap := tr.MeanGap(pcie.TraceWriteIn)
		var bytes int64
		for _, e := range wrs {
			bytes += e.Len
		}
		mean := bytes / int64(len(wrs))
		fmt.Printf("  inbound posted writes: %d, mean %d B, mean gap %v → %.2f GB/s\n",
			len(wrs), mean, gap, float64(mean)/gap.Seconds()/1e9)
	}
}

// runSpans runs the workload through the public snacc API with span tracing
// enabled, prints per-command waterfalls for the first nspans commands of
// the selected direction, verifies monotonicity across every traced span,
// and closes with the per-stage latency percentile table.
func runSpans(v streamer.Variant, op string, sizeMiB int64, nspans int) {
	functional := false
	sys := snacc.MustNewSystem(snacc.Options{
		Variant:    v,
		Functional: &functional,
		// Retain every span: one command per MiB each way, plus slack.
		Trace: &snacc.TraceOptions{SpanLimit: int(2*sizeMiB) + 16},
	})
	defer sys.Close()
	var ioErr error
	sys.Execute(func(h *snacc.Handle) {
		ioErr = h.WriteTimed(0, sizeMiB*sim.MiB)
		if ioErr == nil && op == "read" {
			ioErr = h.ReadTimed(0, sizeMiB*sim.MiB)
		}
	})
	if ioErr != nil {
		fmt.Fprintln(os.Stderr, ioErr)
		os.Exit(1)
	}

	all := sys.Spans()
	var sel []snacc.Span
	for _, sp := range all {
		if sp.Write == (op == "write") {
			sel = append(sel, sp)
		}
	}
	stats := sys.Stats()
	fmt.Printf("workload: %s %s, %d MiB — traced %d spans (%d %s), opened=%d closed=%d\n",
		v, op, sizeMiB, len(all), len(sel), op, stats.SpansOpened, stats.SpansClosed)

	bad := 0
	for _, sp := range all {
		if !sp.Monotone() {
			bad++
		}
	}
	if bad > 0 || stats.SpansOpened != stats.SpansClosed {
		fmt.Fprintf(os.Stderr, "span invariants violated: %d non-monotone spans, opened=%d closed=%d\n",
			bad, stats.SpansOpened, stats.SpansClosed)
		os.Exit(1)
	}
	fmt.Println("all spans monotone, every opened span closed")

	n := nspans
	if n > len(sel) {
		n = len(sel)
	}
	fmt.Printf("\nfirst %d command waterfalls (offsets from acceptance):\n", n)
	for _, sp := range sel[:n] {
		printWaterfall(sp)
	}

	fmt.Println()
	fmt.Println(bench.RenderLatencyBreakdown(bench.LatencyStages(v.String(), op, sel)))
}

// printWaterfall renders one span as a stage-by-stage timeline.
func printWaterfall(sp snacc.Span) {
	fmt.Printf("span %d: %s addr=%#x len=%d status=%#x\n",
		sp.ID, map[bool]string{true: "write", false: "read"}[sp.Write], sp.Addr, sp.Len, sp.Status)
	base := sp.Stages[obs.StageAccepted]
	prev := base
	for st := obs.StageAccepted; st < obs.NumStages; st++ {
		at := sp.Stages[st]
		if at < 0 {
			continue
		}
		fmt.Printf("  %-10s %12v  (+%v)\n", st, at-base, at-prev)
		prev = at
	}
	for _, a := range sp.Annots {
		fmt.Printf("  ! %s at %v\n", a.Kind, a.At-base)
	}
}
