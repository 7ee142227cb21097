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
	// a process would abandon the kernel in the middle of its run.
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

// TestClusterStatsSumNodes: the facade Stats in cluster mode sums every
// node's doorbell, CQ-batch, span, fault and PCIe counters, not only the
// command and byte counters.
func TestClusterStatsSumNodes(t *testing.T) {
	sys := MustNewSystem(Options{
		Seed:          3,
		DoorbellBatch: 4,
		Trace:         &TraceOptions{SpanLimit: 1 << 10},
		Cluster: &ClusterOptions{Nodes: 3, Replication: 2, Quorum: 2,
			NodeFaults: map[int]*FaultOptions{1: {WriteErrorRate: 0.5}}},
	})
	defer sys.Close()
	sys.Execute(func(h *Handle) {
		for i := 0; i < 8; i++ {
			if err := h.WriteTimed(uint64(i)*(64<<10), 64<<10); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
	})
	st := sys.Stats()
	if st.CommandsSubmitted == 0 || st.DoorbellWrites == 0 || st.CQBatches == 0 {
		t.Errorf("commands %d, doorbells %d, CQ batches %d: want all > 0",
			st.CommandsSubmitted, st.DoorbellWrites, st.CQBatches)
	}
	spans := int64(len(sys.Spans()))
	if spans == 0 || st.SpansOpened != spans || st.SpansClosed != spans {
		t.Errorf("spans opened %d closed %d, Spans() holds %d", st.SpansOpened, st.SpansClosed, spans)
	}
	if st.FaultsInjected == 0 || st.FaultsInjected != st.CommandRetries+st.CommandAborts {
		t.Errorf("faults injected %d, want > 0 and = retries %d + aborts %d",
			st.FaultsInjected, st.CommandRetries, st.CommandAborts)
	}
	var card, ssd, host int64
	for i := 0; i < sys.cluster.Nodes(); i++ {
		pl := sys.cluster.Platform(i)
		card += pl.Card.PayloadRx()
		ssd += pl.Counters().PCIeSSDRx
		host += pl.Host.Port.PayloadRx()
	}
	if card == 0 || ssd == 0 || host == 0 ||
		st.PCIeCardRx != card || st.PCIeSSDRx != ssd || st.PCIeHostRx != host {
		t.Errorf("PCIe card/SSD/host rx %d/%d/%d, want the node sums %d/%d/%d, all > 0",
			st.PCIeCardRx, st.PCIeSSDRx, st.PCIeHostRx, card, ssd, host)
	}
}

// TestClusterAppliesStreamerOptions: the submission-path options NewSystem
// validates reach every node's Streamer in cluster mode, and a round trip
// through the multi-queue, batched, out-of-order nodes stays byte-exact.
func TestClusterAppliesStreamerOptions(t *testing.T) {
	sys := MustNewSystem(Options{
		Seed:          4,
		IOQueues:      4,
		DoorbellBatch: 8,
		OutOfOrder:    true,
		Cluster:       &ClusterOptions{Nodes: 3, Replication: 2, Quorum: 1},
	})
	for i := 0; i < sys.cluster.Nodes(); i++ {
		cfg := sys.cluster.Node(i).Config()
		if cfg.IOQueues != 4 || cfg.DoorbellBatch != 8 || !cfg.OutOfOrder {
			t.Errorf("node %d: IOQueues=%d DoorbellBatch=%d OutOfOrder=%v, want 4/8/true",
				i, cfg.IOQueues, cfg.DoorbellBatch, cfg.OutOfOrder)
		}
	}
	const n = 384 << 10 // spans two default chunks
	data := make([]byte, n)
	rng := sim.NewRand(17)
	for i := range data {
		data[i] = byte(rng.Int63n(256))
	}
	var got []byte
	var werr, rerr error
	sys.Execute(func(h *Handle) {
		if werr = h.Write(4096, data); werr == nil {
			got, rerr = h.Read(4096, n)
		}
	})
	if werr != nil || rerr != nil {
		t.Fatalf("write err %v, read err %v", werr, rerr)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip diverged (first diff at %d)", firstDiff(got, data))
	}
}
