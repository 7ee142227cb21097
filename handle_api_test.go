package snacc

import (
	"bytes"
	"strings"
	"testing"
)

// TestHandleRejectsWithoutPanic replays caller inputs that used to crash the
// simulation — an empty write that left the write stream without a TLAST,
// a misaligned address that panicked inside the Streamer's write daemon, a
// raw read on a virtualized system, a tenant index out of range, and a
// cluster write that missed its quorum. Each must come back as an error,
// and the same handle must then complete a 4 KiB write-then-read intact.
func TestHandleRejectsWithoutPanic(t *testing.T) {
	block := make([]byte, 4096)
	for i := range block {
		block[i] = byte(i*7 + 3)
	}
	// roundTrip is the valid request each case must still serve afterwards.
	roundTrip := func(name string, h *Handle) {
		t.Helper()
		if err := h.Write(8192, block); err != nil {
			t.Errorf("%s: follow-up write: %v", name, err)
			return
		}
		got, err := h.Read(8192, int64(len(block)))
		if err != nil || !bytes.Equal(got, block) {
			t.Errorf("%s: follow-up read not byte-exact (err=%v)", name, err)
		}
	}
	mustErr := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: returned nil error", name)
		}
	}

	MustNewSystem(Options{}).Execute(func(h *Handle) {
		mustErr("empty write", h.Write(0, nil))
		mustErr("misaligned write", h.Write(100, block))
		mustErr("odd-length timed write", h.WriteTimed(0, 100))
		_, err := h.Read(0, 0)
		mustErr("empty read", err)
		roundTrip("plain", h)
	})

	MustNewSystem(twoTenantOpts()).Execute(func(h *Handle) {
		_, err := h.Read(0, 4096)
		mustErr("raw read on virtualized system", err)
		mustErr("out-of-range tenant", h.Tenant(2).Write(0, block))
		mustErr("negative tenant", h.Tenant(-1).Write(0, block))
		mustErr("empty tenant write", h.Tenant(0).Write(0, nil))
		roundTrip("tenant 1", h.Tenant(1))
	})

	// Two nodes, R=2, Q=2, node 1 unreachable for the first 5 ms: a write
	// in the window misses its quorum.
	const windowNs = 5_000_000
	cl := MustNewSystem(Options{Cluster: &ClusterOptions{
		Nodes: 2, Replication: 2, Quorum: 2,
		RequestTimeoutNs: 200_000,
		Partitions:       []LinkPartition{{Node: 1, UntilNs: windowNs, Drop: true}},
	}})
	cl.Execute(func(h *Handle) {
		if err := h.WriteTimed(0, 4096); err == nil || !strings.Contains(err.Error(), "quorum") {
			t.Errorf("cluster write without quorum returned %v", err)
		}
		mustErr("misaligned cluster read", h.ReadTimed(100, 4096))
		if wait := windowNs - h.Now(); wait > 0 {
			h.Sleep(wait)
		}
		roundTrip("cluster", h)
	})
}
