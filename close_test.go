package snacc

import (
	"bytes"
	"runtime"
	"testing"

	"snacc/internal/sim"
)

// settle collects garbage until sync.Pool victim caches are empty too.
func settle() {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
}

// clusterOpts is a replicated 4-node cluster for the Close tests.
func clusterOpts() Options {
	return Options{Seed: 3, Cluster: &ClusterOptions{Nodes: 4, Replication: 3, Quorum: 2}}
}

// TestSystemCloseReleasesGoroutines drives three kinds of system, each with
// daemon processes parked at the end of the run, and checks Close stops
// every goroutine they hold.
func TestSystemCloseReleasesGoroutines(t *testing.T) {
	roundTrip := func(t *testing.T, sys *System) {
		data := bytes.Repeat([]byte{0xa5}, 64<<10)
		var err error
		sys.Execute(func(h *Handle) {
			if err = h.Write(0, data); err != nil {
				return
			}
			var got []byte
			if got, err = h.Read(0, int64(len(data))); err == nil && !bytes.Equal(got, data) {
				t.Error("read-back differs from the written data")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) *System
	}{
		{"plain", func(t *testing.T) *System {
			sys := MustNewSystem(Options{})
			roundTrip(t, sys)
			return sys
		}},
		{"serve+tenants", func(t *testing.T) *System {
			so := serveOpts()
			so.SpanBytes = 16 * sim.MiB
			sys := MustNewSystem(Options{
				Tenants: []TenantConfig{
					{Name: "a", Weight: 1, LBAStart: 0, LBABytes: 32 * sim.MiB},
					{Name: "b", Weight: 2, LBAStart: uint64(32 * sim.MiB), LBABytes: 16 * sim.MiB},
				},
				Serve: so,
			})
			if _, err := sys.Serve(); err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"cluster", func(t *testing.T) *System {
			sys := MustNewSystem(clusterOpts())
			roundTrip(t, sys)
			return sys
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			sys := tc.run(t)
			if runtime.NumGoroutine() <= before {
				t.Fatal("the run left no goroutines; the check below proves nothing")
			}
			sys.Close()
			sys.Close() // idempotent
			if got := runtime.NumGoroutine(); got != before {
				t.Errorf("%d goroutines after Close, want %d", got, before)
			}
		})
	}
}

// TestClusterSystemCloseReleasesHeap grows the heap by tens of MiB of
// replicated flash contents, closes and drops the cluster system, and
// checks the garbage collector can reclaim all of it.
func TestClusterSystemCloseReleasesHeap(t *testing.T) {
	var ms runtime.MemStats
	heap := func() float64 {
		settle()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapInuse) / (1 << 20)
	}
	before := heap()
	sys := MustNewSystem(clusterOpts())
	chunk := bytes.Repeat([]byte{0x3c}, 1<<20)
	var err error
	sys.Execute(func(h *Handle) {
		for i := 0; i < 16 && err == nil; i++ {
			err = h.Write(uint64(i)<<20, chunk)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	grown := heap() - before
	t.Logf("the run grew the heap by %.1f MiB", grown)
	if grown < 20 {
		t.Fatalf("heap grew %.1f MiB, want >= 20 for a meaningful check", grown)
	}
	sys.Close()
	after := heap()
	t.Logf("HeapInuse %.1f MiB before the build, %.1f MiB after Close", before, after)
	if after > 1.1*before {
		t.Errorf("HeapInuse %.1f MiB after Close, want within 10%% of %.1f MiB before the build", after, before)
	}
}

// TestExecuteProcPanic checks a panic in the application process reaches
// Execute's caller labelled with the process's name.
func TestExecuteProcPanic(t *testing.T) {
	sys := MustNewSystem(Options{})
	defer sys.Close()
	defer func() {
		pp, ok := recover().(*sim.ProcPanic)
		if !ok || pp.Proc != "app" || pp.Value != "app failure" {
			t.Fatalf("recovered %#v, want a *sim.ProcPanic from process app", pp)
		}
	}()
	sys.Execute(func(h *Handle) { panic("app failure") })
}
