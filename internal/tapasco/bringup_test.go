package tapasco

import (
	"fmt"
	"strings"
	"testing"

	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// bindMultiQueue binds n URAM Streamers with q I/O queues each to one SSD
// and returns their clients.
func bindMultiQueue(pl *Platform, n, q int) []*streamer.Client {
	dev := pl.AddSSD(nvme.DefaultConfig("ssd0", testBAR))
	var cs []*streamer.Client
	for i := 0; i < n; i++ {
		cfg := streamer.DefaultConfig(fmt.Sprintf("s%d", i), 0, streamer.URAM)
		cfg.IOQueues = q
		st := pl.AddStreamer(cfg)
		pl.Bind(dev, st)
		cs = append(cs, streamer.NewClient(st))
	}
	return cs
}

// TestBootAssignsNextFreeQueues checks each Streamer bound to an SSD starts
// after the queue pairs of those before it, and that Boot surfaces the
// admin error once the qids run past the controller's queue-pair limit.
func TestBootAssignsNextFreeQueues(t *testing.T) {
	pl := NewPlatform(sim.NewKernel(), DefaultU280())
	bindMultiQueue(pl, 3, 4)
	for i, want := range []uint16{1, 5, 9} {
		if got := pl.binds[i].qid; got != want {
			t.Errorf("binding %d starts at qid %d, want %d", i, got, want)
		}
	}
	if err := pl.Boot(); err == nil || !strings.Contains(err.Error(), "IOCQ 9") {
		t.Fatalf("Boot = %v, want the IOCQ 9 creation error", err)
	}
}

// TestTraceSpansRoutesDeviceEvents runs two multi-queue Streamers on one
// SSD: their CIDs overlap, so only routing by qid gives every span, the
// second Streamer's included, its device-side fetch stage.
func TestTraceSpansRoutesDeviceEvents(t *testing.T) {
	pl := NewPlatform(sim.NewKernel(), DefaultU280())
	defer pl.K.Close()
	cs := bindMultiQueue(pl, 2, 2)
	tr := obs.NewTracer(64)
	pl.TraceSpans(tr)
	if err := pl.Boot(); err != nil {
		t.Fatal(err)
	}
	pl.K.Spawn("pe", func(p *sim.Proc) {
		for _, c := range cs {
			c.WriteErr(p, 0, 4*sim.MiB, nil)
		}
	})
	pl.K.Run(0)
	if spans := tr.Spans(); len(spans) != 8 {
		t.Fatalf("%d spans, want 8", len(spans))
	}
	for _, sp := range tr.Spans() {
		if sp.Stages[obs.StageFetched] < 0 {
			t.Errorf("span %d has no device fetch stage", sp.ID)
		}
	}
}
