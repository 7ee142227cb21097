package snacc

import (
	"bytes"
	"fmt"
	"testing"

	"snacc/internal/sim"
)

// TestClusterRandomizedDataIntegrity is the scale-out crash variant of
// TestRandomizedDataIntegrity: a randomized overlapping read/write workload
// runs against a replicated 4-node cluster while one node's controller is
// surprise-removed mid-run. For R in {2, 3} every byte must survive — reads
// fail over, writes re-home to survivors, and background re-replication
// restores full replication before the run drains.
func TestClusterRandomizedDataIntegrity(t *testing.T) {
	for _, r := range []int{2, 3} {
		r := r
		t.Run(fmt.Sprintf("R%d", r), func(t *testing.T) { runClusterIntegrity(t, r) })
	}
}

// runClusterIntegrity runs one kill-a-node workload, checking every read
// and the final readback against a shadow copy and the recovery counters
// after the drain.
func runClusterIntegrity(t *testing.T, replication int) {
	quorum := replication - 1
	if quorum < 1 {
		quorum = 1
	}
	sys := MustNewSystem(Options{
		Seed: 9,
		Cluster: &ClusterOptions{
			Nodes:       4,
			Replication: replication,
			Quorum:      quorum,
			NodeFaults:  map[int]*FaultOptions{2: {RemoveAtCommand: 6}},
		},
	})

	const span = 2 << 20 // 2 MiB working window (8 default chunks)
	shadow := make([]byte, span)
	rng := sim.NewRand(uint64(replication)*31 + 5)

	// Failures are collected and reported outside Execute: t.Fatalf inside
	// a sim proc goroutine aborts it without unwinding the kernel and
	// deadlocks the run.
	var failure string
	sys.Execute(func(h *Handle) {
		for op := 0; op < 70; op++ {
			n := (rng.Int63n(96) + 1) * 512
			addr := uint64(rng.Int63n((span-n)/512)) * 512
			if rng.Float64() < 0.55 {
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rng.Int63n(256))
				}
				if err := h.Write(addr, data); err != nil {
					failure = fmt.Sprintf("op %d: write %d@%#x: %v", op, n, addr, err)
					return
				}
				copy(shadow[addr:], data)
			} else {
				got, err := h.Read(addr, n)
				if err != nil {
					failure = fmt.Sprintf("op %d: read %d@%#x: %v", op, n, addr, err)
					return
				}
				if want := shadow[addr : addr+uint64(n)]; !bytes.Equal(got, want) {
					failure = fmt.Sprintf("op %d: read %d@%#x diverged from shadow (first diff at %d)",
						op, n, addr, firstDiff(got, want))
					return
				}
			}
		}
		got, err := h.Read(0, span)
		if err != nil {
			failure = fmt.Sprintf("final readback: %v", err)
			return
		}
		if !bytes.Equal(got, shadow) {
			failure = fmt.Sprintf("final readback diverged at byte %d", firstDiff(got, shadow))
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}

	st := sys.Stats()
	if st.NodeDeaths != 1 {
		t.Fatalf("R=%d: NodeDeaths = %d, want 1", replication, st.NodeDeaths)
	}
	if len(st.DeadNodes) != 1 || st.DeadNodes[0] != 2 {
		t.Fatalf("R=%d: DeadNodes = %v, want [2]", replication, st.DeadNodes)
	}
	if st.ReReplicatedBytes == 0 {
		t.Fatalf("R=%d: repair never ran: %+v", replication, st)
	}
	if st.UnderReplicatedChunks != 0 {
		t.Fatalf("R=%d: cluster still under-replicated after drain (%d chunks)",
			replication, st.UnderReplicatedChunks)
	}
}
