package snacc

import (
	"strings"
	"testing"

	"snacc/internal/sim"
)

// serveOpts is a small, fast serving workload for the facade tests.
func serveOpts() *ServeOptions {
	return &ServeOptions{
		Clients:   500,
		Requests:  300,
		SpanBytes: 32 * sim.MiB,
		Seed:      9,
	}
}

func TestServeFacade(t *testing.T) {
	sys := MustNewSystem(Options{Serve: serveOpts()})
	rep, err := sys.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generated != 300 {
		t.Fatalf("generated %d, want 300", rep.Generated)
	}
	if rep.Generated != rep.Sent+rep.Dropped {
		t.Fatalf("conservation: generated %d != sent %d + dropped %d",
			rep.Generated, rep.Sent, rep.Dropped)
	}
	if rep.Sent != rep.Completed+rep.Failed+rep.Unmatched {
		t.Fatalf("conservation: sent %d != completed %d + failed %d + unmatched %d",
			rep.Sent, rep.Completed, rep.Failed, rep.Unmatched)
	}
	if rep.Completed == 0 || rep.Failed != 0 || rep.Malformed != 0 || rep.Rejected != 0 {
		t.Fatalf("clean run: %+v", rep)
	}
	if rep.GoodputMBps() <= 0 || rep.Latency.Count() != rep.Completed {
		t.Fatalf("goodput %.1f MB/s, %d latency samples for %d completions",
			rep.GoodputMBps(), rep.Latency.Count(), rep.Completed)
	}
	if rep.PeakConns < 1 || rep.PeakConns > 500 {
		t.Fatalf("peak conns %d outside (0, 500]", rep.PeakConns)
	}
	if rep.ConnStateBytes <= 0 {
		t.Fatalf("conn state bytes %d", rep.ConnStateBytes)
	}

	// A system serves once.
	if _, err := sys.Serve(); err == nil || !strings.Contains(err.Error(), "started") {
		t.Fatalf("second Serve: err = %v, want already-started", err)
	}
}

// TestServeFacadeTenants routes the serving tier through the virtualized
// hub: requests are stamped with tenant IDs and dispatched one lane per
// tenant, inside each tenant's LBA window.
func TestServeFacadeTenants(t *testing.T) {
	so := serveOpts()
	so.SpanBytes = 16 * sim.MiB // must fit the smaller tenant window
	sys := MustNewSystem(Options{
		Tenants: []TenantConfig{
			{Name: "a", Weight: 1, LBAStart: 0, LBABytes: 32 * sim.MiB},
			{Name: "b", Weight: 2, LBAStart: uint64(32 * sim.MiB), LBABytes: 16 * sim.MiB},
		},
		Serve: so,
	})
	rep, err := sys.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Sent || rep.Failed != 0 {
		t.Fatalf("tenant-backed run: completed %d of %d sent, failed %d",
			rep.Completed, rep.Sent, rep.Failed)
	}
}

func TestServeOptionErrors(t *testing.T) {
	if _, err := NewSystem(Options{
		Serve:   &ServeOptions{},
		Cluster: &ClusterOptions{Nodes: 2, Replication: 1, Quorum: 1},
	}); err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("Serve+Cluster: err = %v, want incompatible", err)
	}
	bad := serveOpts()
	bad.IOBytes = 1000 // not a multiple of 512
	if _, err := NewSystem(Options{Serve: bad}); err == nil {
		t.Fatal("unaligned IOBytes accepted")
	}
	if _, err := MustNewSystem(Options{}).Serve(); err == nil ||
		!strings.Contains(err.Error(), "Options.Serve") {
		t.Fatalf("Serve without Options.Serve: err = %v", err)
	}
}
