// Package cluster scales the single-node SNAcc system out over the
// simulated network: M streamer nodes — each a full TaPaSCo platform with
// its own NVMe SSD and Streamer — sit behind the internal/ethernet switch,
// and a coordinator speaks an NVMe-oF-style capsule protocol to them
// (protocol.go). The switch, the coordinator and every node share one
// sim.Kernel. A consistent-hash ring (ring.go) shards the logical byte
// space in chunks with replication factor R: writes fan out to R replicas
// and acknowledge at a configurable quorum, reads prefer the primary
// replica and fail over on error or timeout.
//
// The robustness core reuses the existing recovery ladder end to end: node
// death (controller crash/hang/removal via internal/fault, or a link
// partition dropping frames via fault.LinkInjector) trips a per-node
// health tracker (alive → suspect → dead, echoing the Streamer's circuit
// breaker), traffic redirects to survivors, and a background repair
// process re-replicates under-replicated chunks onto the remaining nodes
// while foreground I/O continues. Recovered nodes rejoin through a bounded
// prober and resync through the same repair path.
package cluster

import (
	"fmt"

	"snacc/internal/ethernet"
	"snacc/internal/fault"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// nodeBAR is where each node's private fabric places its SSD register BAR
// (nodes are independent PCIe fabrics, so the address can repeat).
const nodeBAR = 0x10_0000_0000

// DefaultChunkBytes is the replication granule: the unit of placement,
// locking, and repair. 256 KiB keeps a whole-chunk repair copy to one
// capsule exchange under the default Ethernet FIFO sizing.
const DefaultChunkBytes = 256 * sim.KiB

// Partition describes one link-level fault window against a node, mapped
// onto fault.LinkInjector rules at the affected receive sites. With
// neither ToNode nor FromNode set the partition applies in both
// directions.
type Partition struct {
	// Node is the partitioned node.
	Node int
	// From/Until bound the window on the simulation clock ([From, Until),
	// Until 0 = forever).
	From, Until sim.Time
	// Drop discards matched frames; otherwise they are delivered Delay
	// late.
	Drop  bool
	Delay sim.Time
	// Probability/Nth/Count select frames within the window the way
	// fault.LinkRule does; all zero matches every frame.
	Probability float64
	Nth         int64
	Count       int64
	// ToNode drops/delays frames the node receives; FromNode frames the
	// coordinator receives from it.
	ToNode, FromNode bool
}

// Config parameterizes a cluster.
type Config struct {
	// Nodes is the node count M (>= 2).
	Nodes int
	// Replication is the copies-per-chunk factor R (1 <= R <= Nodes).
	Replication int
	// Quorum is the replica acks a write needs before acknowledging the
	// caller (1 <= Quorum <= Replication); the remaining acks resolve in
	// the background. When fewer than Quorum replicas of a chunk remain
	// alive, writes degrade to the survivors rather than failing.
	Quorum int
	// ChunkBytes is the placement/repair granule, a positive multiple of
	// 4 KiB up to 4 MiB. Default DefaultChunkBytes.
	ChunkBytes int64
	// VNodes is the ring's virtual-node count per node (DefaultVNodes
	// when 0).
	VNodes int
	// Deprecated: ignored; the cluster runs on one kernel. Kept because
	// the simulator-cost benchmark sets it.
	KernelWorkers int
	// Functional moves real payload bytes end to end.
	Functional bool
	// Seed derives each node's NAND jitter seed and the link injectors'
	// PRNG streams.
	Seed uint64
	// Variant/QueueDepth configure each node's Streamer.
	Variant    streamer.Variant
	QueueDepth int

	// RequestTimeout is the coordinator's per-capsule watchdog — it must
	// comfortably exceed a node's worst-case local recovery (crash detect
	// + controller reset + replay). Default 10 ms.
	RequestTimeout sim.Time
	// DeadAfter is the consecutive-failure count that declares a node
	// dead (the first failure marks it suspect). Default 2.
	DeadAfter int
	// ProbeInterval/ProbeLimit bound the rejoin prober for a dead node:
	// one liveness probe per interval, giving up after the limit.
	// Defaults 2 ms and 25.
	ProbeInterval sim.Time
	ProbeLimit    int

	// TraceSpans attaches a per-node span tracer (obs.Tracer with the
	// node identity stamped); SpanLimit caps each node's retention.
	TraceSpans bool
	SpanLimit  int

	// Ethernet overrides the link model config (DefaultConfig when
	// zero). FIFO and switch buffers are widened to fit ChunkBytes.
	Ethernet *ethernet.Config

	// NodeInjector, when set, supplies a per-node NVMe fault injector
	// (nil for healthy nodes) — built per node, never shared, so each
	// node owns its PRNG stream.
	NodeInjector func(node int) *fault.Injector
	// StreamerTune, when set, adjusts a node's Streamer config after the
	// cluster recovery defaults are applied.
	StreamerTune func(node int, cfg *streamer.Config)
	// Partitions lists link-level fault windows (see Partition).
	Partitions []Partition
}

// DefaultConfig returns a functional cluster config.
func DefaultConfig(nodes, replication, quorum int) Config {
	return Config{
		Nodes:       nodes,
		Replication: replication,
		Quorum:      quorum,
		Functional:  true,
	}
}

// validate fills defaults and rejects invalid shapes.
func (cfg *Config) validate() error {
	if cfg.Nodes < 2 {
		return fmt.Errorf("cluster: Nodes must be >= 2, got %d", cfg.Nodes)
	}
	if cfg.Replication < 1 || cfg.Replication > cfg.Nodes {
		return fmt.Errorf("cluster: Replication must be in [1, Nodes=%d], got %d", cfg.Nodes, cfg.Replication)
	}
	if cfg.Quorum < 1 || cfg.Quorum > cfg.Replication {
		return fmt.Errorf("cluster: Quorum must be in [1, Replication=%d], got %d", cfg.Replication, cfg.Quorum)
	}
	if cfg.ChunkBytes == 0 {
		cfg.ChunkBytes = DefaultChunkBytes
	}
	if cfg.ChunkBytes <= 0 || cfg.ChunkBytes%4096 != 0 || cfg.ChunkBytes > 4*sim.MiB {
		return fmt.Errorf("cluster: ChunkBytes must be a positive multiple of 4 KiB up to 4 MiB, got %d", cfg.ChunkBytes)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * sim.Millisecond
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 2
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * sim.Millisecond
	}
	if cfg.ProbeLimit <= 0 {
		cfg.ProbeLimit = 25
	}
	for _, pt := range cfg.Partitions {
		if pt.Node < 0 || pt.Node >= cfg.Nodes {
			return fmt.Errorf("cluster: partition names node %d outside [0, %d)", pt.Node, cfg.Nodes)
		}
	}
	return nil
}

// Cluster is an assembled multi-node system.
type Cluster struct {
	cfg   Config
	k     *sim.Kernel
	sw    *ethernet.Switch
	nodes []*node
	co    *coordinator
}

// New builds and initializes a cluster on one kernel: one full platform
// stack per node, the switch fabric, and the coordinator's daemons
// (response router, repair worker, node serve loops).
func New(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ecfg := ethernet.DefaultConfig()
	if cfg.Ethernet != nil {
		ecfg = *cfg.Ethernet
	}
	// A whole-chunk capsule must fit the receive FIFOs with room for
	// pause-reaction headroom, or large repair frames would drop even on
	// an idle link.
	if minFIFO := 4 * (cfg.ChunkBytes + capsuleBytes); ecfg.RxFIFOBytes < minFIFO {
		ecfg.RxFIFOBytes = minFIFO
	}

	cl := &Cluster{cfg: cfg, k: sim.NewKernel()}
	cl.sw = ethernet.NewSwitch(cl.k, "cluster-sw", ecfg, cfg.Nodes+1, 8*(cfg.ChunkBytes+capsuleBytes))
	comac := ethernet.NewMAC(cl.k, "coord", ecfg)
	cl.sw.Attach(0, comac)

	for i := 0; i < cfg.Nodes; i++ {
		n := newNode(cfg, ecfg, i, cl.k)
		cl.nodes = append(cl.nodes, n)
		cl.sw.Attach(i+1, n.mac)
	}

	// Drain node initialization (admin bring-up, queue creation) before
	// any traffic.
	cl.k.Run(0)
	for _, n := range cl.nodes {
		if n.initErr != nil {
			cl.Close()
			return nil, fmt.Errorf("cluster: node %d init: %w", n.id, n.initErr)
		}
	}

	cl.co = newCoordinator(cl, comac)
	for _, n := range cl.nodes {
		n.spawnServe()
	}
	cl.co.spawnDaemons()
	return cl, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *Cluster {
	cl, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return cl
}

// Close stops every process on the cluster's kernel: the node and
// coordinator daemons and anything still parked. It is idempotent; using
// the cluster after Close is a programming error.
func (cl *Cluster) Close() { cl.k.Close() }

// Execute runs fn as a process and advances the kernel until everything
// it triggered drains.
func (cl *Cluster) Execute(fn func(p *sim.Proc)) {
	cl.k.Spawn("app", fn)
	cl.k.Run(0)
}

// Write replicates data (len multiple of 512, addr 512-aligned) at the
// cluster's logical byte address, acknowledging at the configured quorum.
// It must be called from a process spawned via Execute.
func (cl *Cluster) Write(p *sim.Proc, addr uint64, data []byte) error {
	return cl.co.write(p, addr, int64(len(data)), data)
}

// WriteTimed is a timing-only Write of n bytes.
func (cl *Cluster) WriteTimed(p *sim.Proc, addr uint64, n int64) error {
	return cl.co.write(p, addr, n, nil)
}

// Read returns n bytes from the cluster's logical byte address, preferring
// the primary replica and failing over to the others. On error the
// returned buffer holds the pieces that succeeded.
func (cl *Cluster) Read(p *sim.Proc, addr uint64, n int64) ([]byte, error) {
	return cl.co.read(p, addr, n)
}

// Capacity returns the cluster's logical byte capacity: one node's
// namespace (replicas store chunks at their logical addresses).
func (cl *Cluster) Capacity() int64 {
	return cl.nodes[0].dev.Config().NamespaceBytes
}

// Nodes returns the node count.
func (cl *Cluster) Nodes() int { return len(cl.nodes) }

// Node returns node i's streamer (test instrumentation).
func (cl *Cluster) Node(i int) *streamer.Streamer { return cl.nodes[i].st }

// Spans returns the completed spans of every node tracer, grouped in node
// order, each span carrying its node identity (nil without TraceSpans).
func (cl *Cluster) Spans() []obs.Span {
	var out []obs.Span
	for _, n := range cl.nodes {
		out = append(out, n.tracer.Spans()...)
	}
	return out
}

// Stats snapshots the cluster counters. Call between Execute runs, not
// from inside one.
func (cl *Cluster) Stats() Stats {
	s := cl.co.stats()
	s.SimTime = int64(cl.k.Now())
	s.SimEvents = cl.k.EventsExecuted()
	for _, n := range cl.nodes {
		s.LinkFramesDropped += n.rx.Dropped()
		s.LinkFramesDelayed += n.rx.Delayed()
		if n.st.Dead() {
			s.DeadNodes = append(s.DeadNodes, n.id)
		}
	}
	return s
}

// Stats is a snapshot of cluster counters.
type Stats struct {
	// NodeDeaths counts health-ladder death declarations; Rejoins counts
	// probed recoveries; Probes counts liveness probes sent.
	NodeDeaths int64
	Rejoins    int64
	Probes     int64
	// Failovers counts read attempts abandoned on one replica and
	// redirected to another.
	Failovers int64
	// ReReplicatedBytes is the payload the background repair worker
	// copied to restore replication.
	ReReplicatedBytes int64
	// DegradedWindowNs is the cumulative time any chunk held fewer live
	// replicas than the cluster could sustain.
	DegradedWindowNs int64
	// UnderReplicatedChunks is the current count of such chunks (0 once
	// repair has caught up).
	UnderReplicatedChunks int64
	// Chunks is the total chunks placed.
	Chunks int64
	// RequestTimeouts counts coordinator watchdog expirations;
	// LateReplies counts node responses that arrived after their
	// watchdog fired.
	RequestTimeouts int64
	LateReplies     int64
	// LinkFramesDropped/Delayed count link-injector firings across all
	// receive sites.
	LinkFramesDropped int64
	LinkFramesDelayed int64
	// BytesWritten/BytesRead are caller-acknowledged logical payload
	// bytes (BytesWritten counts each logical byte once, independent of
	// the replication factor).
	BytesWritten int64
	BytesRead    int64
	// DeadNodes lists nodes whose controllers are terminally dead.
	DeadNodes []int
	// SimTime/SimEvents mirror the kernel clock and event counter.
	SimTime   int64
	SimEvents uint64
}
