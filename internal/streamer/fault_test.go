package streamer_test

import (
	"bytes"
	"errors"
	"testing"

	"snacc/internal/fault"
	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// recovery enables the watchdog/retry machinery with test-friendly values.
// The deadline comfortably exceeds the worst-case command latency of a full
// queue-depth burst of 1 MiB pieces, so only genuinely lost completions
// trip it.
func recovery(cfg *streamer.Config) {
	cfg.CmdTimeout = 20 * sim.Millisecond
	cfg.MaxRetries = 3
	cfg.RetryBackoff = 5 * sim.Microsecond
}

// TestFailedReadDeliversNoData is the regression test for the silent-
// swallow bug: a read that completes with a fatal status must deliver an
// error flag, not the stale staging-buffer bytes.
func TestFailedReadDeliversNoData(t *testing.T) {
	k, c, dev := rig(t, streamer.URAM, true, nil)
	dev.SetFaultInjector(func(cmd nvme.Command) uint16 {
		if cmd.Opcode == nvme.OpRead {
			return nvme.StatusLBAOutOfRange
		}
		return nvme.StatusSuccess
	})
	want := make([]byte, sim.MiB)
	for i := range want {
		want[i] = byte(i * 13)
	}
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		if err := c.WriteErr(p, 0, int64(len(want)), want); err != nil {
			t.Errorf("write failed: %v", err)
		}
		data, err := c.ReadErr(p, 0, int64(len(want)))
		var ce streamer.CmdError
		if !errors.As(err, &ce) {
			t.Fatalf("read error = %v, want CmdError", err)
		}
		if ce.Status != nvme.StatusLBAOutOfRange {
			t.Errorf("error status = %#x, want %#x", ce.Status, nvme.StatusLBAOutOfRange)
		}
		if len(data) != 0 {
			t.Errorf("failed read delivered %d stale bytes", len(data))
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	if st.BytesToPE() != 0 {
		t.Errorf("BytesToPE = %d after failed read, want 0", st.BytesToPE())
	}
	if st.Counters().CommandErrors != 1 || st.Counters().CommandAborts != 1 {
		t.Errorf("errors/aborts = %d/%d, want 1/1", st.Counters().CommandErrors, st.Counters().CommandAborts)
	}
}

// TestRetryableErrorRetriedToSuccess: one injected internal error must be
// absorbed by a resubmission; the PE sees intact data and no error.
func TestRetryableErrorRetriedToSuccess(t *testing.T) {
	injected := false
	k, c, dev := rig(t, streamer.URAM, true, recovery)
	dev.SetFaultInjector(func(cmd nvme.Command) uint16 {
		if cmd.Opcode == nvme.OpRead && !injected {
			injected = true
			return nvme.StatusInternalError
		}
		return nvme.StatusSuccess
	})
	want := make([]byte, sim.MiB)
	for i := range want {
		want[i] = byte(i * 31)
	}
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		if err := c.WriteErr(p, 4096, int64(len(want)), want); err != nil {
			t.Errorf("write failed: %v", err)
		}
		got, err := c.ReadErr(p, 4096, int64(len(want)))
		if err != nil {
			t.Fatalf("read after retry failed: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("retried read delivered corrupted data")
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	if st.Counters().CommandErrors != 1 || st.Counters().CommandRetries != 1 {
		t.Errorf("errors/retries = %d/%d, want 1/1", st.Counters().CommandErrors, st.Counters().CommandRetries)
	}
	if st.Counters().CommandAborts != 0 || st.Counters().CommandTimeouts != 0 {
		t.Errorf("aborts/timeouts = %d/%d, want 0/0", st.Counters().CommandAborts, st.Counters().CommandTimeouts)
	}
}

// TestDroppedCQERecoveredByWatchdog: a lost completion previously hung the
// reorder-buffer head forever; the deadline watchdog must resubmit and the
// PE must see intact data.
func TestDroppedCQERecoveredByWatchdog(t *testing.T) {
	k, c, dev := rig(t, streamer.URAM, true, recovery)
	inj := fault.NewInjector(7)
	inj.Add(fault.Rule{Name: "drop-first-read-cqe", Kind: fault.DropCQE, Opcode: nvme.OpRead, Nth: 1, Count: 1})
	inj.Attach(dev)
	want := make([]byte, sim.MiB)
	for i := range want {
		want[i] = byte(i * 3)
	}
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		c.WriteErr(p, 0, int64(len(want)), want)
		got, err := c.ReadErr(p, 0, int64(len(want)))
		if err != nil {
			t.Fatalf("read after lost CQE failed: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("recovered read delivered corrupted data")
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	if st.Counters().CommandTimeouts != 1 || st.Counters().CommandRetries != 1 || st.Counters().CommandAborts != 0 {
		t.Errorf("timeouts/retries/aborts = %d/%d/%d, want 1/1/0",
			st.Counters().CommandTimeouts, st.Counters().CommandRetries, st.Counters().CommandAborts)
	}
	if dev.CQEsDropped() != 1 || inj.Injected() != 1 {
		t.Errorf("dropped/injected = %d/%d, want 1/1", dev.CQEsDropped(), inj.Injected())
	}
}

// TestExhaustedRetriesAbortToPE: when every completion is lost, recovery
// must give up after MaxRetries resubmissions and flag the read with the
// synthetic abort status instead of hanging.
func TestExhaustedRetriesAbortToPE(t *testing.T) {
	k, c, dev := rig(t, streamer.URAM, true, recovery)
	inj := fault.NewInjector(7)
	inj.Add(fault.Rule{Name: "drop-all-read-cqes", Kind: fault.DropCQE, Opcode: nvme.OpRead, Nth: 1})
	inj.Attach(dev)
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		c.WriteErr(p, 0, sim.MiB, nil)
		data, err := c.ReadErr(p, 0, sim.MiB)
		var ce streamer.CmdError
		if !errors.As(err, &ce) {
			t.Fatalf("read error = %v, want CmdError", err)
		}
		if ce.Status != nvme.StatusAbortRequested {
			t.Errorf("abort status = %#x, want %#x", ce.Status, nvme.StatusAbortRequested)
		}
		if len(data) != 0 {
			t.Errorf("aborted read delivered %d bytes", len(data))
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	// 1 original + 3 resubmissions, each with an expired deadline.
	if st.Counters().CommandTimeouts != 4 || st.Counters().CommandRetries != 3 || st.Counters().CommandAborts != 1 {
		t.Errorf("timeouts/retries/aborts = %d/%d/%d, want 4/3/1",
			st.Counters().CommandTimeouts, st.Counters().CommandRetries, st.Counters().CommandAborts)
	}
	if dev.CQEsDropped() != 4 {
		t.Errorf("CQEs dropped = %d, want 4", dev.CQEsDropped())
	}
}

// TestDelayedCQEStaleCompletionTolerated: a completion that arrives long
// after the watchdog resubmitted its command must be dropped as a protocol
// error, not crash the rig or corrupt the retried command.
func TestDelayedCQEStaleCompletionTolerated(t *testing.T) {
	k, c, dev := rig(t, streamer.URAM, true, recovery)
	inj := fault.NewInjector(7)
	inj.Add(fault.Rule{Name: "late-first-read-cqe", Kind: fault.DelayCQE, Opcode: nvme.OpRead,
		Nth: 1, Count: 1, Delay: 100 * sim.Millisecond})
	inj.Attach(dev)
	want := make([]byte, sim.MiB)
	for i := range want {
		want[i] = byte(i * 11)
	}
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		c.WriteErr(p, 0, int64(len(want)), want)
		got, err := c.ReadErr(p, 0, int64(len(want)))
		if err != nil {
			t.Fatalf("read failed: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("read delivered corrupted data")
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	if st.Counters().CommandTimeouts != 1 || st.Counters().CommandRetries != 1 {
		t.Errorf("timeouts/retries = %d/%d, want 1/1", st.Counters().CommandTimeouts, st.Counters().CommandRetries)
	}
	if st.Counters().ProtocolErrors != 1 {
		t.Errorf("protocol errors = %d, want 1 (stale CQE)", st.Counters().ProtocolErrors)
	}
	if dev.CQEsDelayed() != 1 {
		t.Errorf("CQEs delayed = %d, want 1", dev.CQEsDelayed())
	}
}

// TestInvalidCompletionsCountedNotFatal pins the panic-to-counter
// conversion: completions naming an out-of-range or idle CID are dropped
// and counted.
func TestInvalidCompletionsCountedNotFatal(t *testing.T) {
	k, c, _ := rig(t, streamer.URAM, true, nil)
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		c.WriteErr(p, 0, 4096, nil)
		c.ReadAsync(p, 0, 0, 4096)
		c.ReadDone(p, 0)
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	st.InjectCQE(nvme.Completion{CID: 9999}) // out of range
	st.InjectCQE(nvme.Completion{CID: 3})    // idle slot: stale/duplicate
	k.Run(0)
	if st.Counters().ProtocolErrors != 2 {
		t.Errorf("protocol errors = %d, want 2", st.Counters().ProtocolErrors)
	}
}

// TestWriteErrorPropagatesWorstStatus pins the write-response bugfix: the
// response token must carry the worst status across the write's pieces —
// here the first piece fails with a transient internal error (recovery is
// off, so it retires as-is) but the fatal capacity error on the second
// piece must win.
func TestWriteErrorPropagatesWorstStatus(t *testing.T) {
	k, c, dev := rig(t, streamer.URAM, false, nil)
	writes := 0
	dev.SetFaultInjector(func(cmd nvme.Command) uint16 {
		if cmd.Opcode == nvme.OpWrite {
			writes++
			switch writes {
			case 1:
				return nvme.StatusInternalError
			case 2:
				return nvme.StatusCapacityExceeded
			}
		}
		return nvme.StatusSuccess
	})
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		err := c.WriteErr(p, 0, 3*sim.MiB, nil) // three 1 MiB pieces
		var ce streamer.CmdError
		if !errors.As(err, &ce) {
			t.Fatalf("write error = %v, want CmdError", err)
		}
		if ce.Status != nvme.StatusCapacityExceeded {
			t.Errorf("response status = %#x, want %#x", ce.Status, nvme.StatusCapacityExceeded)
		}
		if ce.Addr != uint64(sim.MiB) || ce.Len != sim.MiB {
			t.Errorf("failed piece = %#x+%d, want %#x+%d", ce.Addr, ce.Len, sim.MiB, sim.MiB)
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	if st.Counters().CommandErrors != 2 || st.Counters().CommandAborts != 2 || st.CommandsRetired() != 3 {
		t.Errorf("errors/aborts/retired = %d/%d/%d, want 2/2/3",
			st.Counters().CommandErrors, st.Counters().CommandAborts, st.CommandsRetired())
	}
}

// TestRecoveryScheduleDeterministic pins the retry/backoff schedule: two
// identically-seeded runs of a lossy workload must agree on every counter
// and on the final simulated timestamp.
func TestRecoveryScheduleDeterministic(t *testing.T) {
	type outcome struct {
		now                          sim.Time
		timeouts, retries, aborts    int64
		errorsSeen, protocolErrors   int64
		submitted, retired, injected int64
	}
	run := func() outcome {
		k, c, dev := rig(t, streamer.OnboardDRAM, false, recovery)
		inj := fault.NewInjector(1234)
		inj.Add(fault.Rule{Name: "flaky-reads", Kind: fault.StatusError, Opcode: nvme.OpRead,
			Probability: 0.2, Status: nvme.StatusInternalError})
		inj.Add(fault.Rule{Name: "lossy-cq", Kind: fault.DropCQE, Opcode: nvme.OpRead, Nth: 9})
		inj.Attach(dev)
		k.Spawn("pe", func(p *sim.Proc) {
			c.WriteErr(p, 0, 16*sim.MiB, nil)
			for i := 0; i < 16; i++ {
				c.ReadAsync(p, 0, uint64(i)*uint64(sim.MiB), sim.MiB)
			}
			for i := 0; i < 16; i++ {
				c.ReadDone(p, 0)
			}
		})
		k.Run(0)
		st := c.Streamer()
		return outcome{
			now:      k.Now(),
			timeouts: st.Counters().CommandTimeouts, retries: st.Counters().CommandRetries,
			aborts: st.Counters().CommandAborts, errorsSeen: st.Counters().CommandErrors,
			protocolErrors: st.Counters().ProtocolErrors,
			submitted:      st.CommandsSubmitted(), retired: st.CommandsRetired(),
			injected: inj.Injected(),
		}
	}
	first := run()
	if first.injected == 0 {
		t.Fatal("workload injected no faults; test is vacuous")
	}
	if second := run(); second != first {
		t.Errorf("recovery schedule diverged across identical seeds:\n first = %+v\nsecond = %+v", first, second)
	}
}
