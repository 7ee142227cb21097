package bench

import (
	"snacc/internal/ethernet"
	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// chainState is one domain's workload state; everything here is owned by
// exactly one domain and touched only by its events.
type chainState struct {
	h   uint64 // FNV-1a digest
	n   uint64 // events folded
	cur uint64 // id of the protocol unit this domain is working on
	seq uint64 // ids consumed from this domain's (in-order) ingress stream
	mat uint64 // completions matured (NVMe) / posted back (PCIe)
	now func() sim.Time
}

func (c *chainState) fold(v uint64) {
	c.n++
	h := c.h
	h ^= v
	h *= 1099511628211
	h ^= uint64(c.now())
	h *= 1099511628211
	c.h = h
}

// nvmeService is the rig's modeled NVMe command service time — command
// arrival to completion-data ready. Flash media reads are microseconds
// (NAND array access plus data DMA), an order of magnitude above the
// 150 ns PCIe link hop, which is exactly why the per-domain safe-time math
// can batch many in-flight frames per synchronization round.
const nvmeService = 3200 * sim.Nanosecond

// cqCoalesce is the rig's CQ interrupt-coalescing aggregation window: a
// controller batches matured completions and posts them together once the
// oldest has waited this long (the NVMe coalescing feature; real
// aggregation timers run from microseconds to 100 us). Batched posting
// clusters the controller's cross-domain sends, so between posts its
// earliest-output time jumps a whole aggregation window and the fabric
// domain's window can cover several frames per round.
const cqCoalesce = 8 * sim.Microsecond

// cqEntry is one matured completion waiting for the next coalesced post.
type cqEntry struct {
	ready sim.Time
	id    uint64
}

// cqState is one controller's completion-coalescing buffer; owned entirely
// by that controller's domain.
type cqState struct {
	ready   []cqEntry
	posting bool
}

// kernelChainRun drives `frames` Ethernet arrivals through the full
// streamer.DomainPlan chain: each frame fans out local protocol events in
// the ethernet domain, crosses to the pcie domain after the wire latency,
// triggers DMA-shaped local work there, crosses to one of two NVMe
// controller domains after the link latency, pays command processing, and
// completes back through the pcie domain. Lookaheads are the real model
// latencies (wire 500 ns, NVMe link 150 ns with stock configs). It returns
// an FNV-1a digest over every domain's executed events and the shard's
// synchronization counters.
func kernelChainRun(frames int) (digest uint64, sync sim.SyncStats) {
	plan := streamer.DomainPlan(ethernet.DefaultConfig(),
		nvme.DefaultConfig("nvme0", 0), nvme.DefaultConfig("nvme1", 0))
	// The rig's own firmware closures below never answer an arrival with a
	// cross-domain send faster than these delays: a controller posts its
	// completion 3.2 us after command arrival (the NAND array read plus
	// data DMA — flash media is microseconds, not the link's nanoseconds),
	// and the fabric forwards an ingested frame to a controller 200 ns
	// after the ingest event. Declared as domain turnarounds, they stretch
	// earliest-output times — and so every downstream window — far past the
	// raw link lookahead (sim.SetTurnaround).
	plan.Turnarounds = map[string]sim.Time{
		"nvme0": nvmeService,
		"nvme1": nvmeService,
		"pcie":  200 * sim.Nanosecond,
	}
	s := sim.NewShard()
	domains, edges, err := plan.Build(s)
	if err != nil {
		panic(err)
	}
	eth := domains["ethernet"]
	pci := domains["pcie"]
	nvm := []*sim.Domain{domains["nvme0"], domains["nvme1"]}
	toPCI := edges["ethernet->pcie"]
	toNVMe := []*sim.Edge{edges["pcie->nvme0"], edges["pcie->nvme1"]}
	toHost := []*sim.Edge{edges["nvme0->pcie"], edges["nvme1->pcie"]}
	// This workload carries no pause frames, so the fabric->MAC backchannel
	// is declared mute (enforced): without it the ethernet domain has no
	// live inbound edge and runs its whole arrival schedule unthrottled,
	// instead of feeding the eth<->pcie window cycle.
	edges["pcie->ethernet"].Mute()

	state := make([]*chainState, len(plan.Domains))
	for i, name := range plan.Domains {
		d := domains[name]
		state[i] = &chainState{h: 14695981039346656037, now: d.Kernel().Now}
	}
	ethSt, pciSt := state[0], state[1]

	// Every closure below is bound once, before the run: each edge carries
	// an in-order stream (frames arrive in id order, the fabric forwards in
	// id order, each controller completes in command order), so a handler
	// derives the id it is working on from a per-domain sequence counter
	// instead of capturing it — keeping the steady state allocation-free,
	// which is what lets the rig measure synchronization cost rather than
	// garbage-collector pressure.

	// NVMe domains: command processing — a few spaced silent firmware
	// events (fetch, LBA translation, NAND issue, DMA setup), the media
	// read maturing after the full service time, and coalesced completion
	// posting: the first matured completion arms a post event one
	// aggregation window out, which flushes everything matured by then and
	// re-arms while work remains. Only the post events send cross-domain,
	// so the controller's pending queue advertises its true next output.
	cqs := make([]cqState, len(nvm))
	// hostDone runs in the pcie domain for each posted completion.
	hostDone := func() {
		pciSt.mat++
		pciSt.fold(pciSt.mat)
	}
	postFn := make([]func(), len(nvm))
	nvmeTick := make([]func(), len(nvm))
	nvmeMature := make([]func(), len(nvm))
	for i := range nvm {
		idx := i
		st := state[2+idx]
		k := nvm[idx].Kernel()
		cq := &cqs[idx]
		// tick folds the in-flight command; it only fires within the
		// firmware pipeline window, before the next command arrives.
		nvmeTick[idx] = func() { st.fold(st.cur) }
		// mature folds the media-read completion; by then newer commands
		// own st.cur, so it folds the matured count instead.
		nvmeMature[idx] = func() { st.mat++; st.fold(st.mat) }
		postFn[idx] = func() {
			now := k.Now()
			next := sim.Time(0)
			keep := cq.ready[:0]
			for _, en := range cq.ready {
				if en.ready <= now {
					toHost[idx].After(150*sim.Nanosecond, hostDone)
					continue
				}
				if len(keep) == 0 || en.ready < next {
					next = en.ready
				}
				keep = append(keep, en)
			}
			cq.ready = keep
			if len(keep) > 0 {
				k.At(next+cqCoalesce, postFn[idx])
			} else {
				cq.posting = false
			}
			st.fold(uint64(len(keep)))
		}
	}
	// complete handles one command arrival on controller idx. Commands
	// reach controller idx in order id = idx, idx+2, idx+4, ...
	completeFn := make([]func(), len(nvm))
	for i := range nvm {
		idx := i
		st := state[2+idx]
		k := nvm[idx].Kernel()
		cq := &cqs[idx]
		st.seq = uint64(idx)
		completeFn[idx] = func() {
			id := st.seq
			st.seq += 2
			st.cur = id
			for j := sim.Time(1); j <= 4; j++ {
				k.AtSilent(k.Now()+80*j, nvmeTick[idx])
			}
			ready := k.Now() + nvmeService
			k.AtSilent(ready, nvmeMature[idx])
			cq.ready = append(cq.ready, cqEntry{ready: ready, id: id})
			if !cq.posting {
				cq.posting = true
				k.At(ready+cqCoalesce, postFn[idx])
			}
		}
	}
	// PCIe domain: DMA-shaped local work, then forward to a controller.
	// Only the forwarding event can send, so the folds stay silent.
	pk := pci.Kernel()
	pciTick := func() { pciSt.fold(pciSt.cur) }
	forward := func() {
		id := pciSt.cur
		pciSt.fold(id)
		toNVMe[int(id%2)].After(150*sim.Nanosecond, completeFn[int(id%2)])
	}
	ingest := func() {
		id := pciSt.seq
		pciSt.seq++
		pciSt.cur = id
		pciSt.fold(id)
		pk.AtSilent(pk.Now()+100, pciTick)
		pk.At(pk.Now()+200, forward)
	}
	// Ethernet domain: frame arrivals every 720 ns (9000 B at 12.5 GB/s),
	// each with silent MAC/FIFO-shaped local events and a cross into the
	// fabric.
	ek := eth.Kernel()
	ethTick := func() { ethSt.fold(ethSt.cur) }
	var arrival func()
	var frame uint64
	arrival = func() {
		id := frame
		frame++
		ethSt.cur = id
		ethSt.fold(id)
		ek.AtSilent(ek.Now()+120, ethTick)
		ek.AtSilent(ek.Now()+240, ethTick)
		toPCI.After(500*sim.Nanosecond, ingest)
		if int(frame) < frames {
			ek.At(ek.Now()+720, arrival)
		}
	}
	ek.At(0, arrival)

	s.Run(0)
	digest = 14695981039346656037
	for _, st := range state {
		digest ^= st.h
		digest *= 1099511628211
		digest ^= st.n
		digest *= 1099511628211
	}
	return digest, s.SyncStats()
}
