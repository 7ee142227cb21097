package streamer_test

import (
	"bytes"
	"testing"

	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// wrapPattern builds a deterministic payload whose every 64 KiB piece is
// distinguishable, so a command landing in the wrong ring slot (or a stale
// SQE replayed from a wrapped-over slot) shows up as a byte mismatch.
func wrapPattern(n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>16)
	}
	return b
}

// TestSQRingWrapAtDepthBoundary pins the SQ ring wrap discipline at the
// QueueDepth-1 in-flight ceiling. With a 4-deep ring and a transfer worth 32
// commands, the tail wraps the ring many times while the reorder-buffer gate
// (robLive < QueueDepth-1) is saturated, and injected retryable errors force
// resubmissions to re-enter the ring across wrap boundaries. The controller
// panics if it ever fetches a slot the streamer did not fill, so a wrap-
// discipline violation fails loudly; the remaining assertions pin that the
// boundary is actually reached (the test means something) and never
// exceeded, and that the data survives byte-exact.
func TestSQRingWrapAtDepthBoundary(t *testing.T) {
	seen := 0
	k, c, dev := rig(t, streamer.URAM, true, func(cfg *streamer.Config) {
		cfg.QueueDepth = 4
		cfg.MaxCmdBytes = 64 * sim.KiB
		recovery(cfg)
	})
	dev.SetFaultInjector(func(cmd nvme.Command) uint16 {
		if cmd.Opcode != nvme.OpRead {
			return nvme.StatusSuccess
		}
		seen++
		if seen%5 == 0 {
			return nvme.StatusInternalError
		}
		return nvme.StatusSuccess
	})
	c.PktBytes = 64 * sim.KiB // tile the shrunken MaxCmdBytes pieces
	want := wrapPattern(2 * sim.MiB)
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		if err := c.WriteErr(p, 0, int64(len(want)), want); err != nil {
			t.Errorf("write failed: %v", err)
		}
		got, err := c.ReadErr(p, 0, int64(len(want)))
		if err != nil {
			t.Fatalf("read failed: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("data corrupted across SQ ring wraps")
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	if st.Counters().CommandRetries == 0 {
		t.Error("no retries: resubmission never re-entered the wrapped ring")
	}
	hw := st.QueueDepthHighWater()
	if len(hw) != 1 {
		t.Fatalf("QueueDepthHighWater() returned %d queues, want 1", len(hw))
	}
	if hw[0] != 3 {
		t.Errorf("in-flight high water = %d, want QueueDepth-1 = 3 (boundary reached, never exceeded)", hw[0])
	}
}

// TestSQRingWrapMultiQueue is the sharded variant: three 4-deep rings with
// doorbell coalescing, so chunked round-robin placement, deferred tail
// flushes, and retries all cross wrap boundaries on every queue while the
// global reorder-buffer gate still caps total in-flight at QueueDepth-1.
func TestSQRingWrapMultiQueue(t *testing.T) {
	seen := 0
	k, c, dev := rig(t, streamer.URAM, true, func(cfg *streamer.Config) {
		cfg.QueueDepth = 4
		cfg.MaxCmdBytes = 64 * sim.KiB
		cfg.IOQueues = 3
		cfg.DoorbellBatch = 2
		recovery(cfg)
	})
	dev.SetFaultInjector(func(cmd nvme.Command) uint16 {
		if cmd.Opcode != nvme.OpRead {
			return nvme.StatusSuccess
		}
		seen++
		if seen%7 == 0 {
			return nvme.StatusInternalError
		}
		return nvme.StatusSuccess
	})
	c.PktBytes = 64 * sim.KiB // tile the shrunken MaxCmdBytes pieces
	want := wrapPattern(2 * sim.MiB)
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		if err := c.WriteErr(p, 0, int64(len(want)), want); err != nil {
			t.Errorf("write failed: %v", err)
		}
		got, err := c.ReadErr(p, 0, int64(len(want)))
		if err != nil {
			t.Fatalf("read failed: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("data corrupted across multi-queue SQ ring wraps")
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	if st.Counters().CommandRetries == 0 {
		t.Error("no retries: resubmission never re-entered a wrapped ring")
	}
	hw := st.QueueDepthHighWater()
	if len(hw) != 3 {
		t.Fatalf("QueueDepthHighWater() returned %d queues, want 3", len(hw))
	}
	for qi, v := range hw {
		if v == 0 {
			t.Errorf("queue %d never carried a command: placement is not spreading", qi)
		}
		if v > 3 {
			t.Errorf("queue %d in-flight high water = %d, exceeds QueueDepth-1 = 3", qi, v)
		}
	}
}
