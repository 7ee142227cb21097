package tapasco

import (
	"bytes"
	"strings"
	"testing"

	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// TestResetAfterCrashReattaches crashes the controller between a write and
// its read-back. The Streamer's breaker calls the reset handler that
// AttachStreamer installed; the driver resets the controller, rebuilds the
// I/O queues, and the read completes with the written bytes.
func TestResetAfterCrashReattaches(t *testing.T) {
	pl := NewPlatform(sim.NewKernel(), DefaultU280())
	defer pl.K.Close()
	devCfg := nvme.DefaultConfig("ssd0", testBAR)
	devCfg.Functional = true
	dev := pl.AddSSD(devCfg)
	stCfg := streamer.DefaultConfig("s", 0, streamer.URAM)
	stCfg.Functional = true
	stCfg.ArmRecovery(true)
	st := pl.AddStreamer(stCfg)
	pl.Bind(dev, st)
	if err := pl.Boot(); err != nil {
		t.Fatalf("Boot: %v", err)
	}
	c := streamer.NewClient(st)
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 13)
	}
	var got []byte
	var werr, rerr error
	pl.K.Spawn("io", func(p *sim.Proc) {
		if werr = c.WriteErr(p, 0, int64(len(data)), data); werr != nil {
			return
		}
		dev.Crash()
		got, rerr = c.ReadErr(p, 0, int64(len(data)))
	})
	pl.K.Run(0)
	if werr != nil || rerr != nil {
		t.Fatalf("write err %v, read err %v", werr, rerr)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read after reset returned different bytes")
	}
	if st.Counters().ControllerResets != 1 || st.Dead() || dev.ControllerCrashes() != 1 {
		t.Fatalf("resets %d, dead %v, crashes %d: want one reset that revived the controller",
			st.Counters().ControllerResets, st.Dead(), dev.ControllerCrashes())
	}
}

// TestResetAfterRemovalFails: a surprise-removed controller floats all-1s,
// so the reset reports it absent instead of waiting for ready.
func TestResetAfterRemovalFails(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	pl := NewPlatform(k, DefaultU280())
	dev := nvme.New(k, pl.Fabric, nvme.DefaultConfig("ssd0", testBAR))
	st := pl.AddStreamer(streamer.DefaultConfig("s", 0, streamer.URAM))
	drv := NewDriver(pl, "ssd0", testBAR)
	var err error
	k.Spawn("host", func(p *sim.Proc) {
		if err = drv.InitController(p); err != nil {
			return
		}
		if err = drv.AttachStreamer(p, st, 1); err != nil {
			return
		}
		dev.Remove()
		err = drv.ResetAndReattach(p, st, 1)
	})
	k.Run(0)
	if err == nil || !strings.Contains(err.Error(), "controller absent") {
		t.Fatalf("reset after removal = %v, want the controller-absent error", err)
	}
}
