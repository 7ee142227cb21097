package streamer

import (
	"fmt"

	"snacc/internal/ethernet"
	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// DomainPlan maps the paper's ethernet → pcie → nvme-per-controller chain
// onto a conservative multi-domain shard partition (sim.Plan). The cuts follow
// the modeled hardware links, and each edge's lookahead is that link's
// minimum latency:
//
//	ethernet <-> pcie     Ethernet wire propagation (ethernet.Config.EdgeLookahead)
//	pcie     <-> nvme<i>  controller i's PCIe link propagation (nvme.Config.EdgeLookahead)
//
// The "pcie" domain holds the fabric complex — root complex, host port,
// FPGA streamer — because pcie.Fabric couples its ports synchronously (a
// write books serialization time on the destination link directly). The
// per-controller domains model the device links as explicit latency edges;
// rigs that keep controllers on the stock synchronous fabric simply place
// them in the pcie domain and drop those edges (see the bench chain rig behind
// bench.PerfReport for a rig materializing the full plan).
func DomainPlan(eth ethernet.Config, controllers ...nvme.Config) sim.Plan {
	p := sim.Plan{Domains: []string{"ethernet", "pcie"}}
	wire := eth.EdgeLookahead()
	p.Edges = append(p.Edges,
		sim.EdgeSpec{Src: "ethernet", Dst: "pcie", Lookahead: wire},
		sim.EdgeSpec{Src: "pcie", Dst: "ethernet", Lookahead: wire},
	)
	for i, c := range controllers {
		name := fmt.Sprintf("nvme%d", i)
		p.Domains = append(p.Domains, name)
		link := c.EdgeLookahead()
		p.Edges = append(p.Edges,
			sim.EdgeSpec{Src: "pcie", Dst: name, Lookahead: link},
			sim.EdgeSpec{Src: name, Dst: "pcie", Lookahead: link},
		)
		// The controllers' firmware front-end serialization is a safe
		// arrival-to-send floor at a command-level boundary; declaring it
		// widens every downstream window past the raw link lookahead
		// (sim.SetTurnaround). Rigs whose firmware honors a larger floor
		// (media latency, coalesced completion posting) override the map.
		if turn := c.EdgeTurnaround(); turn > 0 {
			if p.Turnarounds == nil {
				p.Turnarounds = make(map[string]sim.Time)
			}
			p.Turnarounds[name] = turn
		}
	}
	return p
}

// DomainHopLookahead returns the lookahead of a full minimum-cost fabric
// hop to controller c under fabric config fc — the bound a rig needs when
// it cuts at the root complex rather than at the device link.
func DomainHopLookahead(fc pcie.Config, c nvme.Config) sim.Time {
	return fc.EdgeLookahead(c.Link)
}
