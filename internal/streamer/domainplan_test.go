package streamer

import (
	"testing"

	"snacc/internal/ethernet"
	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

func TestDomainPlanShape(t *testing.T) {
	eth := ethernet.DefaultConfig()
	c0 := nvme.DefaultConfig("nvme0", 0xF000_0000)
	c1 := nvme.DefaultConfig("nvme1", 0xF100_0000)
	p := DomainPlan(eth, c0, c1)
	if err := p.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	wantDomains := []string{"ethernet", "pcie", "nvme0", "nvme1"}
	if len(p.Domains) != len(wantDomains) {
		t.Fatalf("domains = %v, want %v", p.Domains, wantDomains)
	}
	for i, d := range wantDomains {
		if p.Domains[i] != d {
			t.Fatalf("domains = %v, want %v", p.Domains, wantDomains)
		}
	}
	// 2 edges per boundary: eth<->pcie plus pcie<->nvmeN.
	if want := 2 + 2*2; len(p.Edges) != want {
		t.Fatalf("edges = %d, want %d", len(p.Edges), want)
	}
	byKey := map[string]sim.Time{}
	for _, e := range p.Edges {
		byKey[e.Src+"->"+e.Dst] = e.Lookahead
	}
	if got := byKey["ethernet->pcie"]; got != eth.EdgeLookahead() {
		t.Errorf("ethernet->pcie lookahead %v, want wire latency %v", got, eth.EdgeLookahead())
	}
	if got := byKey["pcie->nvme1"]; got != c1.EdgeLookahead() {
		t.Errorf("pcie->nvme1 lookahead %v, want link propagation %v", got, c1.EdgeLookahead())
	}
	if got := byKey["nvme0->pcie"]; got != c0.EdgeLookahead() {
		t.Errorf("nvme0->pcie lookahead %v, want link propagation %v", got, c0.EdgeLookahead())
	}
	// Each controller declares its firmware front-end floor as turnaround;
	// the fabric and MAC domains promise nothing.
	if got := p.Turnarounds["nvme0"]; got != c0.EdgeTurnaround() {
		t.Errorf("nvme0 turnaround %v, want front-end floor %v", got, c0.EdgeTurnaround())
	}
	if c0.EdgeTurnaround() <= 0 {
		t.Error("stock config declares no front-end turnaround floor")
	}
	if _, ok := p.Turnarounds["pcie"]; ok {
		t.Error("pcie domain must not declare a turnaround")
	}
	// And it must materialize onto a shard.
	s := sim.NewShard()
	domains, edges, err := p.Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(domains) != 4 || len(edges) != 6 {
		t.Fatalf("Build returned %d domains, %d edges", len(domains), len(edges))
	}
}

func TestDomainPlanNoControllers(t *testing.T) {
	p := DomainPlan(ethernet.DefaultConfig())
	if err := p.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	if len(p.Domains) != 2 || len(p.Edges) != 2 {
		t.Fatalf("plan = %+v, want ethernet<->pcie only", p)
	}
}

func TestDomainHopLookahead(t *testing.T) {
	fc := pcie.DefaultConfig()
	c := nvme.DefaultConfig("nvme0", 0xF000_0000)
	// Defaults: 150 ns propagation each end + 150 ns root complex.
	if got, want := DomainHopLookahead(fc, c), 450*sim.Nanosecond; got != want {
		t.Fatalf("hop lookahead = %v, want %v", got, want)
	}
}
