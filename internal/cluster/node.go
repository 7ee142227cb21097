package cluster

import (
	"errors"
	"fmt"

	"snacc/internal/ethernet"
	"snacc/internal/fault"
	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

// node is one cluster member: a full TaPaSCo platform (its own PCIe
// fabric), one NVMe SSD, one Streamer, and a MAC. The serve loop applies
// capsules strictly in arrival order, which together with the switch's
// per-egress FIFO gives each node read-your-writes ordering without any
// protocol-level sequencing.
type node struct {
	id  int
	k   *sim.Kernel
	mac *ethernet.MAC
	dev *nvme.Device
	st  *streamer.Streamer
	c   *streamer.Client
	// rx drops/delays frames this node receives (the to-node side of a
	// Partition).
	rx     *fault.LinkInjector
	tracer *obs.Tracer

	// initErr is Init's result, or errInitStalled until Init returns.
	initErr error
}

var errInitStalled = errors.New("initialization stalled")

// newNode assembles node id on the cluster kernel and spawns its init
// process (drained by New before traffic starts).
func newNode(cfg Config, ecfg ethernet.Config, id int, k *sim.Kernel) *node {
	n := &node{id: id, k: k, initErr: errInitStalled}
	pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
	devCfg := nvme.DefaultConfig(fmt.Sprintf("ssd%d", id), nodeBAR)
	devCfg.Functional = cfg.Functional
	if cfg.Seed != 0 {
		// Distinct per-node NAND jitter streams from one cluster seed.
		devCfg.NAND.Seed = splitmix64(cfg.Seed + uint64(id))
	}
	n.dev = pl.AddSSD(devCfg)

	stCfg := streamer.DefaultConfig(fmt.Sprintf("snacc%d", id), 0, cfg.Variant)
	stCfg.Functional = cfg.Functional
	if cfg.QueueDepth > 0 {
		stCfg.QueueDepth = cfg.QueueDepth
	}
	// The health tracker depends on nodes resolving local faults (bounded
	// retry, breaker, reset+replay) or failing commands terminally, never
	// stalling them, so every node arms the full recovery ladder.
	stCfg.ArmRecovery(true)
	if cfg.StreamerTune != nil {
		cfg.StreamerTune(id, &stCfg)
	}
	n.st = pl.AddStreamer(stCfg)
	pl.Bind(n.dev, n.st)
	n.c = streamer.NewClient(n.st)

	if cfg.NodeInjector != nil {
		if in := cfg.NodeInjector(id); in != nil {
			in.Attach(n.dev)
		}
	}
	if cfg.TraceSpans {
		n.tracer = obs.NewTracer(cfg.SpanLimit)
		n.tracer.SetNode(id)
		pl.TraceSpans(n.tracer)
	}

	n.rx = fault.NewLinkInjector(splitmix64(cfg.Seed + uint64(id) + 0x746f))
	for _, pt := range cfg.Partitions {
		if pt.Node != id || (!pt.ToNode && pt.FromNode) {
			continue
		}
		n.rx.Add(fault.LinkRule{
			Name: fmt.Sprintf("partition-to-node%d", id),
			Drop: pt.Drop, Delay: pt.Delay,
			From: pt.From, Until: pt.Until,
			Probability: pt.Probability, Nth: pt.Nth, Count: pt.Count,
		})
	}

	n.mac = ethernet.NewMAC(k, fmt.Sprintf("node%d", id), ecfg)
	k.Spawn(fmt.Sprintf("node%d.init", id), func(p *sim.Proc) { n.initErr = pl.Init(p) })
	return n
}

// spawnServe starts the node's capsule serve loop (a daemon).
func (n *node) spawnServe() {
	n.k.Spawn(fmt.Sprintf("node%d.serve", n.id), n.serve)
}

func (n *node) serve(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		f := n.mac.Recv(p)
		c, ok := f.Meta.(capsule)
		if !ok {
			continue
		}
		switch fate := n.rx.FrameFate(p.Now()); {
		case fate.Drop:
			continue
		case fate.Delay > 0:
			// Delaying in the serve loop preserves in-order application.
			p.Sleep(fate.Delay)
		}
		n.handle(p, c, f.Data)
	}
}

// handle applies one capsule against the local streamer and answers. A
// node whose controller died still answers — the simulated NIC outlives
// the NVMe controller — with fail-fast errors (and probe replies saying
// so), which is what lets the coordinator's ladder distinguish a dead
// controller from a dead link.
func (n *node) handle(p *sim.Proc, c capsule, data []byte) {
	rep := response{ID: c.ID, Node: n.id}
	var payload []byte
	switch c.Op {
	case opProbe:
		rep.OK = !n.st.Dead()
		if !rep.OK {
			rep.Err = "controller dead"
		}
	case opWrite:
		if err := n.c.WriteErr(p, c.Addr, c.Len, data); err != nil {
			rep.Err = err.Error()
		} else {
			rep.OK = true
			rep.Len = c.Len
		}
	case opRead:
		d, err := n.c.ReadErr(p, c.Addr, c.Len)
		if err != nil {
			rep.Err = err.Error()
		} else {
			rep.OK = true
			rep.Len = c.Len
			payload = d
		}
	}
	wire := int64(capsuleBytes)
	if payload != nil {
		wire += rep.Len
	}
	n.mac.Send(p, ethernet.Frame{Bytes: wire, Data: payload, Meta: rep, DstPort: 0})
}
