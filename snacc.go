// Package snacc is a full-system simulation of SNAcc, the open-source
// framework for streaming-based network-to-storage FPGA accelerators
// (Volz, Kalkhof, Koch — SC Workshops '25). It reproduces the paper's
// entire stack in deterministic discrete-event simulation: a PCIe fabric
// with peer-to-peer transfers and an IOMMU, a protocol-level NVMe SSD
// model, the TaPaSCo platform layer, 100 G Ethernet with 802.3x flow
// control, and — as the core contribution — the NVMe Streamer IP in its
// three buffer variants (URAM, on-board DRAM, host DRAM) with on-the-fly
// PRP-list synthesis and in-order retirement.
//
// The package exposes two levels:
//
//   - System / Handle: build a simulated FPGA+SSD system and drive it the
//     way a user PE drives the Streamer's four AXI streams — writes carry
//     real bytes end to end through the NVMe protocol onto simulated
//     flash, and reads bring them back.
//
//   - Figure4a … Figure7, TableOne, Ablation…: regenerate every table and
//     figure of the paper's evaluation.
package snacc

import (
	"fmt"

	"snacc/internal/cluster"
	"snacc/internal/fault"
	"snacc/internal/fpga"
	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/serve"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
	"snacc/internal/workload"
)

// Span is a traced NVMe command: timestamped pipeline stages from PE
// acceptance to in-order retirement, plus retry/replay/breaker annotations.
type Span = obs.Span

// SpanStage identifies one pipeline stage of a Span.
type SpanStage = obs.Stage

// LatencyHist is a fixed-bucket latency histogram (log-spaced buckets,
// zero-allocation record path).
type LatencyHist = obs.Hist

// Variant selects the NVMe Streamer's payload buffer memory (paper §4.3).
type Variant = streamer.Variant

// TenantConfig describes one tenant of a virtualized Streamer: its isolated
// LBA window, DRR weight, optional token-bucket rate limit, and admission
// cap. See streamer.TenantConfig for field semantics and defaults.
type TenantConfig = streamer.TenantConfig

// TenantStats is one tenant's per-tenant counter snapshot.
type TenantStats = streamer.TenantStats

// The three Streamer variants.
const (
	URAM        = streamer.URAM
	OnboardDRAM = streamer.OnboardDRAM
	HostDRAM    = streamer.HostDRAM
)

// Options configures a simulated system.
type Options struct {
	// Variant picks the Streamer buffer memory. Default URAM.
	Variant Variant
	// QueueDepth is the NVMe submission queue / reorder buffer depth.
	// Default 64, as in the paper.
	QueueDepth int
	// IOQueues shards the Streamer's submission path across this many NVMe
	// I/O queue pairs (1..8) with round-robin placement; the reorder buffer
	// stays global so retirement remains strictly in order. 0 or 1 keeps
	// the paper's single-queue model with its exact event timeline.
	IOQueues int
	// DoorbellBatch coalesces doorbell writes: SQ tail doorbells ring once
	// per DoorbellBatch submitted commands (with the final tail) and CQ-head
	// updates post once per drained run of up to DoorbellBatch completions.
	// 0 or 1 rings per command, as in the paper.
	DoorbellBatch int
	// OutOfOrder enables the §7 out-of-order retirement extension.
	OutOfOrder bool
	// Functional moves real payload bytes through the whole stack
	// (Ethernet frames, PCIe TLPs, PRP lists, NAND media). Default true —
	// turn it off for large timing-only experiments.
	Functional *bool
	// Seed makes otherwise-default stochastic models (NAND latency
	// jitter) deterministic per run.
	Seed uint64
	// Faults, when non-nil, attaches a deterministic NVMe fault injector
	// to the SSD and enables the Streamer's retry/timeout recovery.
	Faults *FaultOptions
	// Trace, when non-nil, enables per-command span tracing and per-stage
	// latency histograms. Without it the pipeline is uninstrumented and
	// pays nothing.
	Trace *TraceOptions
	// Tenants, when non-empty, virtualizes the Streamer: each tenant gets
	// its own command/data stream pair, an isolated LBA window enforced on
	// every submission, a weighted share of the device under deficit
	// round-robin scheduling, and optional token-bucket rate limiting with
	// admission control. Tenant traffic goes through Handle.Tenant(i);
	// the raw Handle's I/O returns an error, since it would bypass the
	// isolation windows.
	Tenants []TenantConfig
	// Cluster, when non-nil, scales the system out: Nodes full
	// streamer+SSD stacks behind the simulated Ethernet switch, a
	// consistent-hash ring sharding the logical byte space with
	// replication factor Replication, quorum writes, read failover, and
	// background re-replication. Handle.Read / Write then address the
	// cluster's replicated logical space; Options.Faults and
	// Options.Tenants are incompatible with cluster mode (use
	// ClusterOptions.NodeFaults for per-node injection).
	Cluster *ClusterOptions
	// Serve, when non-nil, attaches the open-loop RPC serving tier: a
	// simulated client fleet sends length-prefixed read/write capsules over
	// the 100 G link into a frame decoder, connection table and dispatch
	// queue in front of the Streamer. System.Serve runs the workload to
	// quiescence and returns the fleet-side report. With Options.Tenants
	// set, requests are stamped with tenant IDs and dispatched through the
	// virtualized hub, one lane per tenant. Incompatible with
	// Options.Cluster.
	Serve *ServeOptions
}

// ServePhase is one step of the serving workload's burst schedule: the
// baseline arrival rate is multiplied by RateScale for DurationNs of
// simulated time, and the schedule cycles.
type ServePhase struct {
	RateScale  float64
	DurationNs int64
}

// ServeOptions configures Options.Serve, the open-loop serving tier. The
// zero value of every field selects the default noted on it, so
// Options{Serve: &ServeOptions{}} is a complete serving system.
type ServeOptions struct {
	// Clients is the simulated client population (default 10 000).
	Clients int
	// RatePerSec is the aggregate open-loop arrival rate before phase
	// scaling (default 500 000/s).
	RatePerSec float64
	// Requests is the total arrivals to generate (default 4000).
	Requests int64
	// IOBytes is the per-request transfer size, a positive multiple of
	// 512 (default 4 KiB).
	IOBytes int64
	// SpanBytes is the logical byte span requests address (default
	// 256 MiB). With tenants it must fit the tenant LBA windows.
	SpanBytes int64
	// ReadFraction is the probability a request is a read; 0 selects the
	// default 0.7.
	ReadFraction float64
	// ZipfTheta / ZipfBuckets shape the zipfian address distribution
	// (defaults 0.9 and 64).
	ZipfTheta   float64
	ZipfBuckets int
	// Phases is the burst schedule; empty means a flat rate.
	Phases []ServePhase
	// CloseProbability is the per-request chance the client closes its
	// connection afterwards (session churn). Default 0: connections stay
	// open.
	CloseProbability float64
	// Seed drives the workload generator (0 selects a fixed default).
	Seed uint64
	// Server tuning, 0 = package defaults: dispatch-queue depth and batch,
	// capsules coalesced per Ethernet frame, and the per-fleet backlog
	// bound past which paused arrivals are shed.
	DispatchDepth int
	DispatchBatch int
	FrameBatch    int
	ClientBacklog int
}

// ServeReport is the serving tier's end-of-run accounting: arrivals
// generated/sent/shed, completions and goodput, due→response latency
// percentiles, dispatch-queue and connection-table high-water marks, the
// connection-state footprint in bytes, and 802.3x pause activity.
type ServeReport = serve.Report

// serveSeedDefault keeps default ServeOptions runs aligned with the bench
// suite's serve sweep.
const serveSeedDefault = 0x5ac5

// build translates the public options into the internal workload spec and
// tier config, filling defaults. Validation happens in serve.New.
func (o *ServeOptions) build(tenants int) (workload.OpenLoopSpec, serve.Config) {
	spec := workload.OpenLoopSpec{
		Clients:      o.Clients,
		RatePerSec:   o.RatePerSec,
		Ops:          o.Requests,
		ReadFraction: o.ReadFraction,
		IOBytes:      o.IOBytes,
		SpanBytes:    o.SpanBytes,
		ZipfTheta:    o.ZipfTheta,
		ZipfBuckets:  o.ZipfBuckets,
		CloseProb:    o.CloseProbability,
		Seed:         o.Seed,
		Tenants:      tenants,
	}
	if spec.Clients == 0 {
		spec.Clients = 10_000
	}
	if spec.RatePerSec == 0 {
		spec.RatePerSec = 500e3
	}
	if spec.Ops == 0 {
		spec.Ops = 4000
	}
	if spec.ReadFraction == 0 {
		spec.ReadFraction = 0.7
	}
	if spec.IOBytes == 0 {
		spec.IOBytes = 4 * sim.KiB
	}
	if spec.SpanBytes == 0 {
		spec.SpanBytes = 256 * sim.MiB
	}
	if spec.ZipfTheta == 0 {
		spec.ZipfTheta = 0.9
	}
	if spec.ZipfBuckets == 0 {
		spec.ZipfBuckets = 64
	}
	if spec.Seed == 0 {
		spec.Seed = serveSeedDefault
	}
	for _, ph := range o.Phases {
		spec.Phases = append(spec.Phases, workload.PhaseSpec{
			RateScale: ph.RateScale,
			Duration:  sim.Time(ph.DurationNs),
		})
	}
	return spec, serve.Config{
		DispatchDepth: o.DispatchDepth,
		DispatchBatch: o.DispatchBatch,
		FrameBatch:    o.FrameBatch,
		ClientBacklog: o.ClientBacklog,
	}
}

// ClusterOptions configures Options.Cluster: a replicated multi-node
// cluster over the simulated network.
type ClusterOptions struct {
	// Nodes is the node count (>= 2); Replication the copies per chunk
	// (1 <= R <= Nodes); Quorum the replica acks a write needs before
	// acknowledging the caller (1 <= Q <= R).
	Nodes       int
	Replication int
	Quorum      int
	// ChunkBytes is the placement/repair granule, a positive multiple of
	// 4 KiB up to 4 MiB (default 256 KiB).
	ChunkBytes int64
	// RequestTimeoutNs bounds one coordinator->node capsule exchange
	// (default 10 ms); DeadAfter consecutive failures declare a node dead
	// (default 2); ProbeIntervalNs/ProbeLimit bound the rejoin prober
	// (defaults 2 ms, 25).
	RequestTimeoutNs int64
	DeadAfter        int
	ProbeIntervalNs  int64
	ProbeLimit       int
	// NodeFaults attaches a per-node NVMe fault injector (keyed by node
	// index); a node's entry also arms its Streamer recovery ladder with
	// the same knobs as Options.Faults.
	NodeFaults map[int]*FaultOptions
	// Partitions lists link-level fault windows against nodes.
	Partitions []LinkPartition
}

// LinkPartition drops or delays frames to/from one node for a window of
// simulated time — a network fault, as opposed to the NVMe-level faults of
// FaultOptions.
type LinkPartition struct {
	// Node is the partitioned node.
	Node int
	// FromNs/UntilNs bound the window ([From, Until); UntilNs 0 = forever).
	FromNs, UntilNs int64
	// Drop discards matched frames; otherwise they arrive DelayNs late.
	Drop    bool
	DelayNs int64
	// Probability/Nth/Count select frames inside the window (all zero =
	// every frame).
	Probability float64
	Nth, Count  int64
	// ToNode affects frames the node receives, FromNode frames it sends;
	// neither set means both directions.
	ToNode, FromNode bool
}

// TraceOptions configures the observability layer.
type TraceOptions struct {
	// SpanLimit caps the completed spans retained for export (the first
	// SpanLimit to finish; histograms keep aggregating past the cap).
	// Default obs.DefaultSpanLimit.
	SpanLimit int
	// Boundary additionally attaches a PCIe transaction tracer at the
	// staging-buffer boundary — the position of the paper's §5.2 ILA —
	// exposed through BoundaryTrace.
	Boundary bool
}

// FaultOptions configures seed-driven NVMe fault injection plus the
// Streamer's recovery machinery. The zero value of each field selects a
// sensible default, so enabling recovery without faults is just
// Options{Faults: &FaultOptions{}}.
type FaultOptions struct {
	// Seed drives the injector's probability decisions. Default 1.
	Seed uint64
	// ReadErrorRate / WriteErrorRate are per-command probabilities of the
	// device failing a read/write with a retryable data-transfer error.
	ReadErrorRate  float64
	WriteErrorRate float64
	// CQELossRate is the per-completion probability of the CQE being
	// dropped on the wire, exercising the watchdog path.
	CQELossRate float64
	// CmdTimeoutNs is the per-command watchdog deadline. Default 50 ms; it
	// must comfortably exceed the device's worst-case completion latency.
	CmdTimeoutNs int64
	// MaxRetries bounds resubmissions per command. Default 3; use -1 to
	// abort on the first failure.
	MaxRetries int
	// RetryBackoffNs is the base backoff before a resubmission, doubled
	// per attempt. Default 10 µs.
	RetryBackoffNs int64

	// Controller-level failure injection. Any of the three enables the
	// Streamer's crash-recovery ladder (circuit breaker, controller reset,
	// in-flight replay) alongside the per-command machinery above.

	// CrashEveryNCmds crashes the controller (latches CSTS.CFS, stops
	// fetching and completing) as every Nth I/O command reaches
	// completion; the crashed command's data has moved but its CQE is
	// withheld, so replay is idempotent. Values below 2 are rejected: a
	// controller that dies at every command can never retire one, so the
	// workload could not make progress.
	CrashEveryNCmds int64
	// HangAtCommand freezes the command engine as the Nth I/O command
	// completes, for HangDurationNs, then revives it. Fires once.
	HangAtCommand int64
	// HangDurationNs is the hang length. Default 5 ms.
	HangDurationNs int64
	// RemoveAtCommand surprise-removes the controller at the Nth I/O
	// completion: registers float all-1s and no reset revives it. Fires
	// once.
	RemoveAtCommand int64

	// Recovery-ladder knobs (apply when any controller fault above is set,
	// or when explicitly non-zero).

	// CrashDetectTimeoutNs is the controller-status poll interval — how
	// quickly a latched fatal status or a removal is noticed without
	// waiting out the command deadline. Default 1 ms.
	CrashDetectTimeoutNs int64
	// BreakerThreshold is the consecutive-timeout count that trips the
	// circuit breaker. Default 2.
	BreakerThreshold int
	// MaxResets bounds controller reset attempts per breaker trip before
	// the controller is declared dead. Default 2; use -1 for 0 (any trip
	// is terminal).
	MaxResets int
}

// wantsBreaker reports whether the options ask for the crash-recovery
// ladder — either by injecting controller-level faults or by setting one of
// its knobs explicitly.
func (f *FaultOptions) wantsBreaker() bool {
	return f.CrashEveryNCmds > 0 || f.HangAtCommand > 0 || f.RemoveAtCommand > 0 ||
		f.CrashDetectTimeoutNs > 0 || f.BreakerThreshold > 0 || f.MaxResets != 0
}

// System is an assembled simulation: Alveo U280 + host + Samsung 990 PRO
// model + one NVMe Streamer, fully initialized (admin queue brought up,
// I/O queues created inside the Streamer window, IOMMU granted, doorbells
// programmed).
type System struct {
	kernel *sim.Kernel
	plat   *tapasco.Platform
	dev    *nvme.Device
	st     *streamer.Streamer
	client *streamer.Client
	// injectors holds the Options.Faults injector, or in cluster mode one
	// per node with ClusterOptions.NodeFaults; empty without faults.
	injectors []*fault.Injector
	tracer    *obs.Tracer         // nil unless Options.Trace was set
	boundary  *pcie.Tracer        // nil unless Options.Trace.Boundary was set
	hub       *streamer.TenantHub // nil unless Options.Tenants was set
	cluster   *cluster.Cluster    // nil unless Options.Cluster was set
	serve     *serve.Tier         // nil unless Options.Serve was set
}

// systemBARWindow is where enumeration places discovered device BARs.
const systemBARWindow = 0x10_0000_0000

// NewSystem builds and initializes a system. The SSD's register BAR is not
// hard-coded: the host enumerates the fabric's config space and locates
// the device by its NVMe class code, the way a real kernel probes.
func NewSystem(opts Options) (sys *System, err error) {
	functional := true
	if opts.Functional != nil {
		functional = *opts.Functional
	}
	if opts.Faults != nil && opts.Faults.CrashEveryNCmds == 1 {
		return nil, fmt.Errorf("snacc: CrashEveryNCmds must be >= 2 (a controller that crashes at every command never completes one)")
	}
	if opts.IOQueues < 0 || opts.IOQueues > streamer.MaxIOQueues {
		return nil, fmt.Errorf("snacc: IOQueues must be between 0 and %d, got %d", streamer.MaxIOQueues, opts.IOQueues)
	}
	if opts.DoorbellBatch < 0 {
		return nil, fmt.Errorf("snacc: DoorbellBatch must be non-negative, got %d", opts.DoorbellBatch)
	}
	if opts.Cluster != nil {
		if opts.Serve != nil {
			return nil, fmt.Errorf("snacc: Options.Serve is incompatible with Options.Cluster")
		}
		return newClusterSystem(opts, functional)
	}
	k := sim.NewKernel()
	defer func() {
		if err != nil {
			k.Close()
		}
	}()
	pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
	devCfg := nvme.DefaultConfig("ssd0", 0) // BAR assigned by enumeration
	devCfg.Functional = functional
	if opts.Seed != 0 {
		devCfg.NAND.Seed = opts.Seed
	}
	dev := pl.AddSSD(devCfg)
	stCfg := streamer.DefaultConfig("snacc0", 0, opts.Variant)
	stCfg.Functional = functional
	stCfg.OutOfOrder = opts.OutOfOrder
	if opts.QueueDepth > 0 {
		stCfg.QueueDepth = opts.QueueDepth
	}
	stCfg.IOQueues = opts.IOQueues
	stCfg.DoorbellBatch = opts.DoorbellBatch
	if opts.Faults != nil {
		applyFaultRecovery(&stCfg, opts.Faults)
	}
	st := pl.AddStreamer(stCfg)
	pl.Bind(dev, st)
	var injectors []*fault.Injector
	if opts.Faults != nil {
		in := buildInjector(opts.Faults)
		in.Attach(dev)
		injectors = append(injectors, in)
	}
	var tracer *obs.Tracer
	var boundary *pcie.Tracer
	if opts.Trace != nil {
		tracer = obs.NewTracer(opts.Trace.SpanLimit)
		pl.TraceSpans(tracer)
		if opts.Trace.Boundary {
			boundary = pl.TraceBoundary(st)
		}
	}
	nvmes := pcie.FindByClass(pl.Fabric.Enumerate(systemBARWindow), pcie.ClassNVMe)
	if len(nvmes) != 1 {
		return nil, fmt.Errorf("snacc: enumeration found %d NVMe controllers, want 1", len(nvmes))
	}
	if err := pl.Boot(); err != nil {
		return nil, err
	}
	sys = &System{kernel: k, plat: pl, dev: dev, st: st,
		client: streamer.NewClient(st), injectors: injectors,
		tracer: tracer, boundary: boundary}
	if len(opts.Tenants) > 0 {
		hub, err := streamer.NewTenantHub(k, st, opts.Tenants, streamer.HubOptions{})
		if err != nil {
			return nil, err
		}
		sys.hub = hub
	}
	if opts.Serve != nil {
		spec, cfg := opts.Serve.build(len(opts.Tenants))
		var backend streamer.IO = sys.client
		if sys.hub != nil {
			backend = sys.hub
		}
		tier, err := serve.New(k, cfg, spec, backend)
		if err != nil {
			return nil, err
		}
		sys.serve = tier
	}
	return sys, nil
}

// applyFaultRecovery maps FaultOptions onto the Streamer's recovery knobs:
// the reference settings of streamer.Config.ArmRecovery, overridden by
// every knob the options set.
func applyFaultRecovery(cfg *streamer.Config, f *FaultOptions) {
	ladder := f.wantsBreaker()
	cfg.ArmRecovery(ladder)
	if f.CmdTimeoutNs > 0 {
		cfg.CmdTimeout = sim.Time(f.CmdTimeoutNs)
	}
	if f.MaxRetries != 0 {
		cfg.MaxRetries = max(f.MaxRetries, 0)
	}
	if f.RetryBackoffNs > 0 {
		cfg.RetryBackoff = sim.Time(f.RetryBackoffNs)
	}
	if !ladder {
		return
	}
	if f.BreakerThreshold > 0 {
		cfg.BreakerThreshold = f.BreakerThreshold
	}
	if f.MaxResets != 0 {
		cfg.MaxResets = max(f.MaxResets, 0)
	}
	if f.CrashDetectTimeoutNs > 0 {
		cfg.CFSPollInterval = sim.Time(f.CrashDetectTimeoutNs)
	}
}

// buildInjector translates FaultOptions rates into injector rules.
func buildInjector(f *FaultOptions) *fault.Injector {
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	in := fault.NewInjector(seed)
	if f.ReadErrorRate > 0 {
		in.Add(fault.Rule{Name: "read-errors", Kind: fault.StatusError,
			Opcode: nvme.OpRead, Probability: f.ReadErrorRate,
			Status: nvme.StatusDataTransferError})
	}
	if f.WriteErrorRate > 0 {
		in.Add(fault.Rule{Name: "write-errors", Kind: fault.StatusError,
			Opcode: nvme.OpWrite, Probability: f.WriteErrorRate,
			Status: nvme.StatusDataTransferError})
	}
	if f.CQELossRate > 0 {
		in.Add(fault.Rule{Name: "cqe-loss", Kind: fault.DropCQE,
			Opcode: fault.OpAny, Probability: f.CQELossRate})
	}
	if f.CrashEveryNCmds > 0 {
		in.Add(fault.Rule{Name: "ctrl-crash", Kind: fault.CrashCtrl,
			Opcode: fault.OpAny, Nth: f.CrashEveryNCmds})
	}
	if f.HangAtCommand > 0 {
		hang := 5 * sim.Millisecond
		if f.HangDurationNs > 0 {
			hang = sim.Time(f.HangDurationNs)
		}
		in.Add(fault.Rule{Name: "ctrl-hang", Kind: fault.HangCtrl,
			Opcode: fault.OpAny, Nth: f.HangAtCommand, Count: 1, Delay: hang})
	}
	if f.RemoveAtCommand > 0 {
		in.Add(fault.Rule{Name: "ctrl-remove", Kind: fault.RemoveCtrl,
			Opcode: fault.OpAny, Nth: f.RemoveAtCommand, Count: 1})
	}
	return in
}

// newClusterSystem assembles a replicated multi-node system behind the
// simulated Ethernet switch (Options.Cluster).
func newClusterSystem(opts Options, functional bool) (*System, error) {
	if len(opts.Tenants) > 0 {
		return nil, fmt.Errorf("snacc: Options.Tenants is incompatible with Options.Cluster")
	}
	if opts.Faults != nil {
		return nil, fmt.Errorf("snacc: Options.Faults is incompatible with Options.Cluster (use ClusterOptions.NodeFaults)")
	}
	if opts.Trace != nil && opts.Trace.Boundary {
		return nil, fmt.Errorf("snacc: Trace.Boundary is not supported in cluster mode")
	}
	co := opts.Cluster
	for nd, f := range co.NodeFaults {
		if f != nil && f.CrashEveryNCmds == 1 {
			return nil, fmt.Errorf("snacc: node %d: CrashEveryNCmds must be >= 2", nd)
		}
	}
	ccfg := cluster.DefaultConfig(co.Nodes, co.Replication, co.Quorum)
	ccfg.ChunkBytes = co.ChunkBytes
	ccfg.Functional = functional
	ccfg.Seed = opts.Seed
	ccfg.Variant = opts.Variant
	ccfg.QueueDepth = opts.QueueDepth
	ccfg.RequestTimeout = sim.Time(co.RequestTimeoutNs)
	ccfg.DeadAfter = co.DeadAfter
	ccfg.ProbeInterval = sim.Time(co.ProbeIntervalNs)
	ccfg.ProbeLimit = co.ProbeLimit
	if opts.Trace != nil {
		ccfg.TraceSpans = true
		ccfg.SpanLimit = opts.Trace.SpanLimit
	}
	faults := co.NodeFaults
	var injectors []*fault.Injector
	if len(faults) > 0 {
		ccfg.NodeInjector = func(node int) *fault.Injector {
			f := faults[node]
			if f == nil {
				return nil
			}
			in := buildInjector(f)
			injectors = append(injectors, in)
			return in
		}
	}
	ccfg.StreamerTune = func(node int, cfg *streamer.Config) {
		cfg.IOQueues = opts.IOQueues
		cfg.DoorbellBatch = opts.DoorbellBatch
		cfg.OutOfOrder = opts.OutOfOrder
		if f := faults[node]; f != nil {
			applyFaultRecovery(cfg, f)
		}
	}
	for _, pt := range co.Partitions {
		ccfg.Partitions = append(ccfg.Partitions, cluster.Partition{
			Node:        pt.Node,
			From:        sim.Time(pt.FromNs),
			Until:       sim.Time(pt.UntilNs),
			Drop:        pt.Drop,
			Delay:       sim.Time(pt.DelayNs),
			Probability: pt.Probability,
			Nth:         pt.Nth,
			Count:       pt.Count,
			ToNode:      pt.ToNode,
			FromNode:    pt.FromNode,
		})
	}
	cl, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	return &System{cluster: cl, injectors: injectors}, nil
}

// MustNewSystem is NewSystem, panicking on error (examples, tests).
func MustNewSystem(opts Options) *System {
	s, err := NewSystem(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Close stops every simulation process the system owns, so a dropped
// system holds no goroutines and can be garbage collected. It is
// idempotent; using the system after Close is a programming error.
func (s *System) Close() {
	if s.cluster != nil {
		s.cluster.Close()
		return
	}
	s.kernel.Close()
}

// Handle drives the Streamer from inside the simulation, the way a user
// PE drives its four AXI4-Stream interfaces. Its I/O methods never panic on
// caller input: a request the device cannot take, or one addressed to the
// wrong target, returns an error before it reaches a Streamer.
type Handle struct {
	p   *sim.Proc
	sys *System
	// tenant is the addressed tenant when tenanted is set (see Tenant).
	tenant   int
	tenanted bool
}

// Execute runs fn as a simulation process and advances simulated time
// until it (and everything it triggered) completes.
func (s *System) Execute(fn func(h *Handle)) {
	if s.cluster != nil {
		s.cluster.Execute(func(p *sim.Proc) {
			fn(&Handle{p: p, sys: s})
		})
		return
	}
	s.kernel.Spawn("app", func(p *sim.Proc) {
		fn(&Handle{p: p, sys: s})
	})
	s.kernel.Run(0)
}

// Serve runs the configured open-loop serving workload (Options.Serve) to
// quiescence and returns the fleet's report. The client fleet starts at the
// current simulated time, sends every generated arrival (or sheds it at the
// paused client under overload) and the call returns once the last response
// has drained. A system serves once; a second call reports an error.
func (s *System) Serve() (ServeReport, error) {
	if s.serve == nil {
		return ServeReport{}, fmt.Errorf("snacc: Serve requires Options.Serve")
	}
	if err := s.serve.Start(s.kernel.Now()); err != nil {
		return ServeReport{}, err
	}
	s.kernel.Run(0)
	return s.serve.Report(), nil
}

// Now returns the current simulated time in nanoseconds.
func (h *Handle) Now() int64 { return int64(h.p.Now()) }

// Tenant returns a handle whose I/O goes through tenant i's virtual stream
// pair (Options.Tenants). Its addresses are relative to the tenant's LBA
// window; out-of-window requests return the per-tenant rejection error
// without touching the device. On a system without tenants, or for an
// index out of range, every I/O on the returned handle returns an error.
func (h *Handle) Tenant(i int) *Handle {
	return &Handle{p: h.p, sys: h.sys, tenant: i, tenanted: true}
}

// route validates a request and picks its target: the tenant hub's lane,
// or the raw Streamer's client (nil in cluster mode).
func (h *Handle) route(addr uint64, n int64) (streamer.IO, int, error) {
	hub := h.sys.hub
	switch {
	case n <= 0 || n%512 != 0 || addr%512 != 0:
		return nil, 0, fmt.Errorf("snacc: request of %d bytes at %#x: length must be a positive multiple of 512 and the address 512-aligned", n, addr)
	case !h.tenanted && hub != nil:
		return nil, 0, fmt.Errorf("snacc: Streamer is virtualized (Options.Tenants); address a tenant with Handle.Tenant")
	case !h.tenanted:
		return h.sys.client, 0, nil
	case hub == nil:
		return nil, 0, fmt.Errorf("snacc: no tenants configured (set Options.Tenants)")
	case h.tenant < 0 || h.tenant >= hub.Tenants():
		return nil, 0, fmt.Errorf("snacc: tenant %d out of range (%d configured)", h.tenant, hub.Tenants())
	}
	return hub, h.tenant, nil
}

// Write stores data at the given device byte address (512-aligned, length
// a positive multiple of 512) and returns the worst terminal NVMe status
// across the write's pieces, nil when every piece landed. In cluster mode
// the address is a cluster-logical byte address and the write replicates
// to R nodes, failing when fewer than the quorum acknowledge.
func (h *Handle) Write(addr uint64, data []byte) error {
	return h.write(addr, int64(len(data)), data)
}

// WriteTimed performs a timing-only write of n bytes.
func (h *Handle) WriteTimed(addr uint64, n int64) error {
	return h.write(addr, n, nil)
}

func (h *Handle) write(addr uint64, n int64, data []byte) error {
	io, lane, err := h.route(addr, n)
	switch {
	case err != nil:
		return err
	case h.sys.cluster != nil && data != nil:
		return h.sys.cluster.Write(h.p, addr, data)
	case h.sys.cluster != nil:
		return h.sys.cluster.WriteTimed(h.p, addr, n)
	}
	io.WriteAsync(h.p, lane, addr, n, data)
	return io.WriteDone(h.p, lane)
}

// Read returns n bytes from the given device byte address, surfacing
// terminal NVMe errors (after the Streamer has exhausted its retries); on
// error the data covers only the pieces that succeeded. In cluster mode
// the read is served by the chunk's primary replica, failing over to the
// others on error or timeout.
func (h *Handle) Read(addr uint64, n int64) ([]byte, error) {
	io, lane, err := h.route(addr, n)
	switch {
	case err != nil:
		return nil, err
	case h.sys.cluster != nil:
		return h.sys.cluster.Read(h.p, addr, n)
	}
	io.ReadAsync(h.p, lane, addr, n)
	return io.ReadDone(h.p, lane)
}

// ReadTimed performs a read of n bytes, discarding the content.
func (h *Handle) ReadTimed(addr uint64, n int64) error {
	_, err := h.Read(addr, n)
	return err
}

// Sleep advances this process by d nanoseconds of simulated time.
func (h *Handle) Sleep(d int64) { h.p.Sleep(sim.Time(d)) }

// Spans returns the completed command spans traced so far (nil without
// Options.Trace).
func (h *Handle) Spans() []Span { return h.sys.Spans() }

// Trace returns the span tracer, or nil when the system was built without
// Options.Trace. The tracer exposes per-stage latency histograms, span
// accounting, and the global breaker/reset/death event timeline.
func (s *System) Trace() *obs.Tracer { return s.tracer }

// Spans returns the completed command spans traced so far, in completion
// order (nil without Options.Trace). In cluster mode the spans of every
// node tracer are concatenated in node order, each stamped with its node
// identity (Span.Node).
func (s *System) Spans() []Span {
	if s.cluster != nil {
		return s.cluster.Spans()
	}
	return s.tracer.Spans()
}

// StageLatency returns the latency histogram of the transition into stage
// st, or nil without Options.Trace.
func (s *System) StageLatency(st SpanStage) *LatencyHist { return s.tracer.StageHist(st) }

// CommandLatency returns the end-to-end (accepted → retired) latency
// histogram for the given direction, or nil without Options.Trace.
func (s *System) CommandLatency(write bool) *LatencyHist { return s.tracer.E2E(write) }

// BoundaryTrace returns the staging-buffer-boundary PCIe tracer, or nil
// unless Options.Trace.Boundary was set.
func (s *System) BoundaryTrace() *pcie.Tracer { return s.boundary }

// Counters is a node's counter snapshot: the Streamer's command, recovery,
// doorbell and payload counters, the PCIe payload each port received, and
// the span accounting (see tapasco.Counters for field semantics).
type Counters = tapasco.Counters

// Stats is a snapshot of system counters. In cluster mode the node
// Counters are summed over the nodes and ControllerDead is set when any
// node's controller is dead; only IOQueueDepthPeak stays nil there.
type Stats struct {
	Counters
	// FaultsInjected counts injector firings (0 without Options.Faults or
	// ClusterOptions.NodeFaults).
	FaultsInjected int64
	// ControllerDead reports whether the recovery ladder declared the
	// controller dead.
	ControllerDead bool
	// IOQueueDepthPeak holds the per-I/O-queue in-flight high-water marks
	// (one entry per queue pair; a single-entry slice in the default
	// configuration).
	IOQueueDepthPeak []int64
	// Simulated time elapsed since the system was built.
	SimTime int64
	// SimEvents counts discrete-event executions (simulator work).
	SimEvents uint64
	// Tenants holds one per-tenant counter snapshot per configured tenant
	// (nil without Options.Tenants). Completed tenant payload sums match the
	// global BytesToPE / BytesFromPE counters.
	Tenants []TenantStats
	// Scale-out accounting (all zero without Options.Cluster): node death
	// declarations and probed rejoins, read failovers, payload copied by
	// background re-replication, cumulative nanoseconds any chunk held
	// fewer live replicas than the cluster could sustain, the current
	// under-replicated chunk count (0 once repair has caught up), and the
	// nodes whose controllers are terminally dead.
	NodeDeaths            int64
	NodeRejoins           int64
	Failovers             int64
	ReReplicatedBytes     int64
	DegradedWindowNs      int64
	UnderReplicatedChunks int64
	DeadNodes             []int
}

// Stats snapshots the system counters.
func (s *System) Stats() Stats {
	if s.cluster != nil {
		return s.clusterStats()
	}
	return Stats{
		Counters:         s.plat.Counters(),
		FaultsInjected:   s.FaultsInjected(),
		ControllerDead:   s.st.Dead(),
		IOQueueDepthPeak: s.st.QueueDepthHighWater(),
		SimTime:          int64(s.kernel.Now()),
		SimEvents:        s.kernel.EventsExecuted(),
		Tenants:          s.TenantStats(),
	}
}

// clusterStats maps the cluster's counters onto the system snapshot.
func (s *System) clusterStats() Stats {
	cs := s.cluster.Stats()
	return Stats{
		Counters:              s.cluster.Counters(),
		FaultsInjected:        s.FaultsInjected(),
		ControllerDead:        len(cs.DeadNodes) > 0,
		SimTime:               cs.SimTime,
		SimEvents:             cs.SimEvents,
		NodeDeaths:            cs.NodeDeaths,
		NodeRejoins:           cs.Rejoins,
		Failovers:             cs.Failovers,
		ReReplicatedBytes:     cs.ReReplicatedBytes,
		DegradedWindowNs:      cs.DegradedWindowNs,
		UnderReplicatedChunks: cs.UnderReplicatedChunks,
		DeadNodes:             cs.DeadNodes,
	}
}

// TenantStats snapshots the per-tenant counters, or nil when the system was
// built without Options.Tenants.
func (s *System) TenantStats() []TenantStats {
	if s.hub == nil {
		return nil
	}
	return s.hub.Stats()
}

// TenantReadLatency returns tenant i's accept→complete read-latency
// histogram (the zero histogram without Options.Tenants).
func (s *System) TenantReadLatency(i int) LatencyHist {
	if s.hub == nil {
		return LatencyHist{}
	}
	return s.hub.ReadLatency(i)
}

// TenantWriteLatency returns tenant i's accept→complete write-latency
// histogram (the zero histogram without Options.Tenants).
func (s *System) TenantWriteLatency(i int) LatencyHist {
	if s.hub == nil {
		return LatencyHist{}
	}
	return s.hub.WriteLatency(i)
}

// FaultsInjected returns the number of faults the injectors have fired (in
// cluster mode, summed over the nodes' injectors), or 0 when the system was
// built without Options.Faults or ClusterOptions.NodeFaults.
func (s *System) FaultsInjected() int64 {
	var n int64
	for _, in := range s.injectors {
		n += in.Injected()
	}
	return n
}

// Capacity returns the simulated SSD capacity in bytes (in cluster mode,
// the cluster's logical capacity — one node's namespace, since replicas
// store chunks at their logical addresses).
func (s *System) Capacity() int64 {
	if s.cluster != nil {
		return s.cluster.Capacity()
	}
	return s.dev.Config().NamespaceBytes
}

// Resources returns the Table 1 FPGA resource estimate for this system's
// Streamer configuration (in cluster mode, for one node's Streamer).
func (s *System) Resources() fpga.Resources {
	if s.cluster != nil {
		return fpga.EstimateStreamer(s.cluster.Node(0).Config())
	}
	return fpga.EstimateStreamer(s.st.Config())
}
