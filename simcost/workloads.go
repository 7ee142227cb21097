package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"snacc"
	"snacc/internal/casestudy"
	"snacc/internal/cluster"
	"snacc/internal/fault"
	"snacc/internal/imagestream"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// params selects one round's inputs.
type params struct {
	seed  uint64
	tiny  bool // self-test sizes: a few ops per round
	trace bool // span tracer on, where the entry point has one
	// tamper, when set, receives each raw output before it is checked:
	// *casestudy.Result, *snacc.ServeReport or the *[]byte of a cluster
	// readback. The self-test uses it to show the checks are live.
	tamper func(any)
}

// outcome is what one round reports. It crosses the process boundary
// as JSON (see childRound).
type outcome struct {
	Ops, Failed int64
	// Digest hashes the round's modeled results (simulated time, events,
	// bandwidth, latency histograms, counters). Same inputs, same digest,
	// traced or not.
	Digest  string
	Modeled string // the modeled results, for people
	// Counts holds the deterministic layer counts, already normalised as
	// the metric names say (per op, per 1000 ops, MiB, ...).
	Counts map[string]float64
	// Traced rounds only: simulated per-stage latency percentiles and the
	// span accounting.
	Stages         map[string]float64
	Opened, Closed int64
}

// round drives one built system through its batch of ops, once.
type round func() (outcome, error)

// workload names a rig. build assembles the system up to its first op and
// is timed as set-up; the round it returns is the measured phase.
type workload struct {
	name  string
	build func(p params) (round, error)
}

var workloads = []workload{
	{name: "casestudy", build: buildCasestudy},
	{name: "serve-4k", build: buildServe},
	{name: "cluster-rw", build: buildCluster},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func digest(parts ...any) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(parts...)))
	return fmt.Sprintf("%x", sum[:8])
}

// stageNames are the per-stage metrics: the simulated p50 and p99 of each
// traced stage transition after "accepted", in microseconds.
func stageNames() []string {
	var names []string
	for s := obs.Stage(1); s < obs.NumStages; s++ {
		names = append(names, "stage."+s.String()+"_p50_us", "stage."+s.String()+"_p99_us")
	}
	return names
}

func stageMetrics(hist func(obs.Stage) *obs.Hist) map[string]float64 {
	m := map[string]float64{}
	names := stageNames()
	for s := obs.Stage(1); s < obs.NumStages; s++ {
		h := hist(s)
		m[names[2*(s-1)]] = h.Percentile(50).Micros()
		m[names[2*(s-1)+1]] = h.Percentile(99).Micros()
	}
	return m
}

func histDigest(h *sim.Histogram) string {
	return fmt.Sprint(h.Count(), h.Min(), h.Max(), h.Mean(), h.Percentile(50), h.Percentile(99))
}

const (
	kib = 1024.0
	mib = 1024.0 * 1024.0
)

// casestudy: the paper's §6 pipeline on the On-board DRAM variant,
// timing-only as in Figure 6. One op is one image plus its record.
func buildCasestudy(p params) (round, error) {
	// RunSNAcc builds its own rig inside the round, so its per-op costs
	// include that set-up (under 0.1% of a 100-image round). setup_s is
	// measured on the same platform, SSD and Streamer brought up through
	// the facade: enumeration, controller init, I/O queues.
	off := false
	if _, err := snacc.NewSystem(snacc.Options{Variant: snacc.OnboardDRAM, Functional: &off}); err != nil {
		return nil, err
	}
	images := 100
	if p.tiny {
		images = 3
	}
	return func() (outcome, error) {
		cfg := casestudy.DefaultConfig()
		cfg.Images, cfg.Source.Count = images, images
		cfg.Seed = p.seed
		r := casestudy.RunSNAcc(streamer.OnboardDRAM, cfg)
		if p.tamper != nil {
			p.tamper(&r)
		}
		img := imagestream.Image{Width: cfg.Source.Width, Height: cfg.Source.Height, Channels: cfg.Source.Channels}.Bytes()
		want := int64(images) * ((img+511)&^511 + cfg.RecordBytes)
		switch {
		case r.Errors != 0 || r.FramesDropped != 0:
			return outcome{}, fmt.Errorf("casestudy: %d errors, %d frames dropped", r.Errors, r.FramesDropped)
		case r.Bytes != want:
			return outcome{}, fmt.Errorf("casestudy: persisted %d bytes, want %d", r.Bytes, want)
		case r.PCIe["ssd"] < want:
			return outcome{}, fmt.Errorf("casestudy: SSD pulled %d bytes over PCIe, less than the %d persisted", r.PCIe["ssd"], want)
		case r.ImageLatency.Count() != images:
			return outcome{}, fmt.Errorf("casestudy: %d images acknowledged, want %d", r.ImageLatency.Count(), images)
		}
		ops := float64(images)
		return outcome{
			Ops: int64(images),
			Digest: digest(r.Elapsed, r.Bytes, r.PCIe["card"], r.PCIe["ssd"], r.PCIe["host"],
				r.EthernetPauses, histDigest(r.ImageLatency), r.GBps()),
			Modeled: fmt.Sprintf("%.3f GB/s persisted, image latency p50 %.0f us, %d pauses",
				r.GBps(), r.ImageLatency.Percentile(50).Micros(), r.EthernetPauses),
			Counts: map[string]float64{
				"pcie.card_rx_kb_per_op":  float64(r.PCIe["card"]) / kib / ops,
				"pcie.ssd_rx_kb_per_op":   float64(r.PCIe["ssd"]) / kib / ops,
				"pcie.host_rx_kb_per_op":  float64(r.PCIe["host"]) / kib / ops,
				"ethernet.pauses_per_kop": float64(r.EthernetPauses) * 1000 / ops,
			},
		}, nil
	}, nil
}

// serve-4k: the open-loop RPC tier over a 2-tenant hub on URAM. One op is
// one arrival. 150k/s base rate is one the model sustains (no shedding,
// no pauses), so host cost per request measures code, not queue growth.
func buildServe(p params) (round, error) {
	requests := int64(20_000)
	if p.tiny {
		requests = 400
	}
	opts := snacc.Options{
		Variant: snacc.URAM,
		Tenants: []snacc.TenantConfig{
			{Weight: 1, LBAStart: 0, LBABytes: 64 << 20},
			{Weight: 2, LBAStart: 64 << 20, LBABytes: 64 << 20},
		},
		Serve: &snacc.ServeOptions{
			Clients:          100_000,
			RatePerSec:       150e3,
			Requests:         requests,
			IOBytes:          4096,
			SpanBytes:        64 << 20,
			ReadFraction:     0.7,
			ZipfTheta:        0.9,
			ZipfBuckets:      64,
			Phases:           []snacc.ServePhase{{RateScale: 1, DurationNs: 200_000}, {RateScale: 6, DurationNs: 50_000}},
			CloseProbability: 0.05,
			Seed:             p.seed,
		},
	}
	if p.trace {
		opts.Trace = &snacc.TraceOptions{}
	}
	sys, err := snacc.NewSystem(opts)
	if err != nil {
		return nil, err
	}
	base := sys.Stats()
	return func() (outcome, error) {
		rep, err := sys.Serve()
		if err != nil {
			return outcome{}, err
		}
		if p.tamper != nil {
			p.tamper(&rep)
		}
		switch {
		case rep.Generated != requests:
			return outcome{}, fmt.Errorf("serve: generated %d arrivals, want %d", rep.Generated, requests)
		case rep.Completed+rep.Dropped != rep.Generated:
			return outcome{}, fmt.Errorf("serve: completed %d + dropped %d != generated %d", rep.Completed, rep.Dropped, rep.Generated)
		case rep.Failed != 0 || rep.Malformed != 0 || rep.Unmatched != 0:
			return outcome{}, fmt.Errorf("serve: failed %d, malformed %d, unmatched %d", rep.Failed, rep.Malformed, rep.Unmatched)
		}
		st := sys.Stats()
		ops := float64(rep.Generated)
		out := outcome{
			Ops:    rep.Generated,
			Failed: rep.Dropped,
			Digest: digest(rep, st.CommandsSubmitted, st.CommandsRetired, st.DoorbellWrites, st.CQBatches,
				st.BytesToPE, st.BytesFromPE, st.PCIeCardRx, st.PCIeSSDRx, st.PCIeHostRx,
				st.SimTime, st.SimEvents, st.Tenants),
			Modeled: fmt.Sprintf("goodput %.1f MB/s, latency p50 %.1f us p99 %.1f us, %d dropped, %d pauses",
				rep.GoodputMBps(), rep.Latency.P50().Micros(), rep.Latency.P99().Micros(), rep.Dropped, rep.PausesSent),
			Counts: map[string]float64{
				"sim.events_per_op":       float64(st.SimEvents-base.SimEvents) / ops,
				"nvme.cmds_per_op":        float64(st.CommandsSubmitted-base.CommandsSubmitted) / ops,
				"nvme.doorbells_per_op":   float64(st.DoorbellWrites-base.DoorbellWrites) / ops,
				"pcie.card_rx_kb_per_op":  float64(st.PCIeCardRx-base.PCIeCardRx) / kib / ops,
				"pcie.ssd_rx_kb_per_op":   float64(st.PCIeSSDRx-base.PCIeSSDRx) / kib / ops,
				"pcie.host_rx_kb_per_op":  float64(st.PCIeHostRx-base.PCIeHostRx) / kib / ops,
				"ethernet.pauses_per_kop": float64(rep.PausesSent) * 1000 / ops,
				"serve.peak_dispatch":     float64(rep.PeakDispatch),
				"serve.peak_conns":        float64(rep.PeakConns),
				"serve.conn_state_mib":    float64(rep.ConnStateBytes) / mib,
			},
		}
		if p.trace {
			out.Stages = stageMetrics(sys.StageLatency)
			out.Opened, out.Closed = st.SpansOpened, st.SpansClosed
		}
		return out, nil
	}, nil
}

// cluster-rw: a 4-node R=3 Q=2 cluster on 2 kernel workers, node 1
// surprise-removed mid-run. A closed loop writes 64 KiB at seeded
// addresses over a 64 MiB span and reads every second write back. One op
// is one logical read or write.
//
// The rig is built with cluster.New rather than snacc.Options.Cluster: the
// facade does not expose the per-node tracers whose opened/closed span
// counts the traced run checks. The node-1 fault is the rule the facade's
// ClusterOptions.NodeFaults{1: {RemoveAtCommand: n}} would install.
func buildCluster(p params) (round, error) {
	const opBytes = 64 << 10
	const slots = (64 << 20) / opBytes
	writes := 1200
	if p.tiny {
		writes = 60
	}
	cfg := cluster.DefaultConfig(4, 3, 2)
	cfg.KernelWorkers = 2
	cfg.Seed = p.seed
	cfg.TraceSpans = p.trace
	removeAt := int64(writes) / 2 // node 1's Nth I/O completion: about mid-run
	cfg.NodeInjector = func(node int) *fault.Injector {
		if node != 1 {
			return nil
		}
		in := fault.NewInjector(1)
		in.Add(fault.Rule{Name: "ctrl-remove", Kind: fault.RemoveCtrl, Opcode: fault.OpAny, Nth: removeAt, Count: 1})
		return in
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	base := cl.Stats()
	return func() (outcome, error) {
		rng := sim.NewRand(2*p.seed + 1) // odd: NewRand rejects 0
		// One seeded pattern per round; every 512-byte sector of a write is
		// stamped with the write's index, so a stale, lost or misplaced
		// sector fails the byte-exact readback.
		buf := make([]byte, opBytes)
		for i := 0; i < len(buf); i += 8 {
			binary.LittleEndian.PutUint64(buf[i:], rng.Uint64())
		}
		var ops, failed int64
		var checkErr error
		cl.Execute(func(pr *sim.Proc) {
			for i := 0; i < writes && checkErr == nil; i++ {
				addr := uint64(rng.Intn(slots)) * opBytes
				for s := 0; s < opBytes; s += 512 {
					binary.LittleEndian.PutUint64(buf[s:], uint64(i))
				}
				ops++
				if err := cl.Write(pr, addr, buf); err != nil {
					failed++
					continue
				}
				if i%2 == 0 {
					continue
				}
				ops++
				got, err := cl.Read(pr, addr, opBytes)
				if err != nil {
					failed++
					continue
				}
				if p.tamper != nil {
					p.tamper(&got)
				}
				if !bytes.Equal(got, buf) {
					checkErr = fmt.Errorf("cluster: readback of write %d at %#x differs", i, addr)
				}
			}
		})
		if checkErr != nil {
			return outcome{}, checkErr
		}
		st := cl.Stats()
		var cmds, doorbells, opened, closed int64
		var node []int64
		var stages [obs.NumStages]obs.Hist
		for i := 0; i < cl.Nodes(); i++ {
			n := cl.Node(i)
			cmds += n.CommandsSubmitted()
			doorbells += n.DoorbellWrites()
			node = append(node, n.CommandsRetired(), n.BytesToPE(), n.BytesFromPE(), n.CQBatches())
			if tr := n.Tracer(); tr != nil {
				opened += tr.Opened()
				closed += tr.Closed()
				for s := obs.Stage(0); s < obs.NumStages; s++ {
					stages[s].Merge(tr.StageHist(s))
				}
			}
		}
		fops := float64(ops)
		out := outcome{
			Ops:    ops,
			Failed: failed,
			Digest: digest(st, cmds, doorbells, node),
			Modeled: fmt.Sprintf("%.1f MiB written, %.1f MiB re-replicated, %d node deaths, %.2f ms simulated",
				float64(st.BytesWritten)/mib, float64(st.ReReplicatedBytes)/mib, st.NodeDeaths, float64(st.SimTime-base.SimTime)/1e6),
			Counts: map[string]float64{
				"sim.events_per_op":     float64(st.SimEvents-base.SimEvents) / fops,
				"nvme.cmds_per_op":      float64(cmds) / fops,
				"nvme.doorbells_per_op": float64(doorbells) / fops,
				"cluster.rerep_mib":     float64(st.ReReplicatedBytes) / mib,
				"cluster.failovers":     float64(st.Failovers),
				"cluster.degraded_ms":   float64(st.DegradedWindowNs) / 1e6,
			},
		}
		if p.trace {
			out.Stages = stageMetrics(func(s obs.Stage) *obs.Hist { return &stages[s] })
			out.Opened, out.Closed = opened, closed
		}
		return out, nil
	}, nil
}
