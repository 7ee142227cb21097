package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"snacc/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestClusterModeledGolden pins the cluster's modeled output, not just
// run-to-run equality: a seeded 4-node, R=3, Q=2 cluster writes 64 KiB
// blocks, reads every second one back, and loses node 1's controller
// mid-run. Every Stats field except SimEvents (a simulator-cost counter,
// not a modeled quantity) and each node's Streamer counters must match
// testdata/modeled.golden, so a change to event order that shifts any
// modeled result fails here. Regenerate with -update only for an
// intended model change.
func TestClusterModeledGolden(t *testing.T) {
	const writes = 48
	const ioBytes = 64 * sim.KiB
	cfg := DefaultConfig(4, 3, 2)
	cfg.Seed = 9
	cfg.NodeInjector = killNodeInjector(1, writes/2)
	cl := MustNew(cfg)

	var failures []string
	cl.Execute(func(p *sim.Proc) {
		rnd := sim.NewRand(13)
		data := make([]byte, ioBytes)
		for i := 0; i < writes; i++ {
			addr := uint64(int64(rnd.Intn(256)) * ioBytes)
			fillPattern(data, uint64(i)<<32|addr)
			if err := cl.Write(p, addr, data); err != nil {
				failures = append(failures, fmt.Sprintf("write %d @%#x: %v", i, addr, err))
				continue
			}
			if i%2 == 0 {
				continue
			}
			got, err := cl.Read(p, addr, ioBytes)
			if err != nil {
				failures = append(failures, fmt.Sprintf("read %d @%#x: %v", i, addr, err))
			} else if !bytes.Equal(got, data) {
				failures = append(failures, fmt.Sprintf("read %d @%#x: bytes differ at %d", i, addr, firstDiff(got, data)))
			}
		}
	})
	for _, f := range failures {
		t.Error(f)
	}

	var b strings.Builder
	st := cl.Stats()
	if st.NodeDeaths != 1 {
		t.Errorf("scenario did not kill node 1: %+v", st)
	}
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != "SimEvents" {
			fmt.Fprintf(&b, "%s: %v\n", name, v.Field(i).Interface())
		}
	}
	for i := 0; i < cl.Nodes(); i++ {
		n := cl.Node(i)
		fmt.Fprintf(&b, "node%d: submitted=%d retired=%d doorbells=%d cqbatches=%d to_pe=%d from_pe=%d\n",
			i, n.CommandsSubmitted(), n.CommandsRetired(), n.DoorbellWrites(), n.CQBatches(),
			n.BytesToPE(), n.BytesFromPE())
	}

	path := filepath.Join("testdata", "modeled.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestClusterModeledGolden -update ./internal/cluster): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("modeled output diverged from %s\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}
