package tapasco

import (
	"bytes"

	"testing"

	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

const testBAR = 0x10_0000_0000

func TestWindowAllocationAligned(t *testing.T) {
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	a := pl.AllocWindow(16 * sim.MiB)
	b := pl.AllocWindow(256 * sim.MiB)
	c := pl.AllocWindow(2 * sim.MiB)
	for _, w := range []struct {
		base uint64
		size int64
	}{{a, 16 * sim.MiB}, {b, 256 * sim.MiB}, {c, 2 * sim.MiB}} {
		if w.base%uint64(w.size) != 0 {
			t.Errorf("window %#x not aligned to %#x", w.base, w.size)
		}
	}
	if !(a < b && b < c) {
		t.Errorf("windows not monotonically allocated: %#x %#x %#x", a, b, c)
	}
}

func TestWindowAllocationRejectsNonPow2(t *testing.T) {
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two window accepted")
		}
	}()
	pl.AllocWindow(3 * sim.MiB)
}

func TestDRAMReservationExhaustion(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultU280()
	cfg.DRAM.Size = 256 * sim.MiB
	pl := NewPlatform(k, cfg)
	pl.ReserveDRAM(128 * sim.MiB)
	pl.ReserveDRAM(128 * sim.MiB)
	defer func() {
		if recover() == nil {
			t.Error("over-reservation of card DRAM accepted")
		}
	}()
	pl.ReserveDRAM(1)
}

func TestDriverDiscoversGeometry(t *testing.T) {
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	devCfg := nvme.DefaultConfig("ssd0", testBAR)
	nvme.New(k, pl.Fabric, devCfg)
	drv := NewDriver(pl, "ssd0", testBAR)
	ok := false
	k.Spawn("init", func(p *sim.Proc) {
		if err := drv.InitController(p); err != nil {
			t.Errorf("init: %v", err)
			return
		}
		ok = true
	})
	k.Run(0)
	if !ok {
		t.Fatal("init incomplete")
	}
	if drv.LBASize() != 512 {
		t.Errorf("LBASize = %d", drv.LBASize())
	}
	if got, want := drv.CapacityBlocks(), uint64(devCfg.NamespaceBytes/512); got != want {
		t.Errorf("capacity = %d, want %d", got, want)
	}
}

func TestAttachBeforeInitFails(t *testing.T) {
	// Creating I/O queues on a disabled controller must surface an error,
	// not hang: the admin SQ doorbell rings a queue that does not exist.
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	nvme.New(k, pl.Fabric, nvme.DefaultConfig("ssd0", testBAR))
	st := pl.AddStreamer(streamer.DefaultConfig("s", 0, streamer.URAM))
	drv := NewDriver(pl, "ssd0", testBAR)
	defer func() {
		if recover() == nil {
			t.Error("attach without init should fail loudly")
		}
	}()
	k.Spawn("init", func(p *sim.Proc) {
		_ = drv.AttachStreamer(p, st, 1)
	})
	k.Run(0)
}

func TestIOMMUGrantsScopedToStreamerWindow(t *testing.T) {
	// After AttachStreamer, the SSD may touch the streamer's window but not
	// other card addresses.
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	dev := nvme.New(k, pl.Fabric, nvme.DefaultConfig("ssd0", testBAR))
	st := pl.AddStreamer(streamer.DefaultConfig("s", 0, streamer.URAM))
	drv := NewDriver(pl, "ssd0", testBAR)
	k.Spawn("init", func(p *sim.Proc) {
		if err := drv.InitController(p); err != nil {
			t.Errorf("%v", err)
			return
		}
		if err := drv.AttachStreamer(p, st, 1); err != nil {
			t.Errorf("%v", err)
		}
	})
	k.Run(0)
	iommu := pl.Fabric.IOMMU()
	if err := iommu.Check("ssd0", st.Config().WindowBase, 4096); err != nil {
		t.Errorf("window access rejected: %v", err)
	}
	outside := st.Config().WindowBase + uint64(st.WindowSize())
	if err := iommu.Check("ssd0", outside, 4096); err == nil {
		t.Error("access beyond the streamer window accepted")
	}
	_ = dev
}

func TestTwoDriversTwoSSDs(t *testing.T) {
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	nvme.New(k, pl.Fabric, nvme.DefaultConfig("ssdA", testBAR))
	nvme.New(k, pl.Fabric, nvme.DefaultConfig("ssdB", testBAR+0x100000))
	stA := pl.AddStreamer(streamer.DefaultConfig("sA", 0, streamer.URAM))
	stB := pl.AddStreamer(streamer.DefaultConfig("sB", 0, streamer.URAM))
	drvA := NewDriver(pl, "ssdA", testBAR)
	drvB := NewDriver(pl, "ssdB", testBAR+0x100000)
	ok := false
	k.Spawn("init", func(p *sim.Proc) {
		for _, step := range []func() error{
			func() error { return drvA.InitController(p) },
			func() error { return drvB.InitController(p) },
			func() error { return drvA.AttachStreamer(p, stA, 1) },
			func() error { return drvB.AttachStreamer(p, stB, 1) },
		} {
			if err := step(); err != nil {
				t.Errorf("%v", err)
				return
			}
		}
		ok = true
	})
	k.Run(0)
	if !ok {
		t.Fatal("dual init incomplete")
	}
}

func TestXUPVVHPlatformRunsTheStack(t *testing.T) {
	// §4.5: the plugin is available for the U280 and the Bittware XUP-VVH;
	// the whole stack must initialize and move data on the second platform.
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultXUPVVH())
	devCfg := nvme.DefaultConfig("ssd0", testBAR)
	devCfg.Functional = true
	nvme.New(k, pl.Fabric, devCfg)
	stCfg := streamer.DefaultConfig("s", 0, streamer.OnboardDRAM)
	stCfg.Functional = true
	st := pl.AddStreamer(stCfg)
	drv := NewDriver(pl, "ssd0", testBAR)
	ok := false
	k.Spawn("main", func(p *sim.Proc) {
		if err := drv.InitController(p); err != nil {
			t.Errorf("%v", err)
			return
		}
		if err := drv.AttachStreamer(p, st, 1); err != nil {
			t.Errorf("%v", err)
			return
		}
		c := streamer.NewClient(st)
		data := make([]byte, 64*1024)
		for i := range data {
			data[i] = byte(i)
		}
		if err := c.WriteErr(p, 0, int64(len(data)), data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		got, err := c.ReadErr(p, 0, int64(len(data)))
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		for i := range data {
			if got[i] != data[i] {
				t.Error("XUP-VVH round trip corrupted")
				return
			}
		}
		ok = true
	})
	k.Run(0)
	if !ok {
		t.Fatal("XUP-VVH stack did not complete")
	}
}

func TestTwoStreamersOneSSD(t *testing.T) {
	// §7: "each additional NVMe Streamer only requires one additional
	// queue pair" — two Streamers attach to the same controller on queue
	// pairs 1 and 2 and run concurrently with intact data.
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	devCfg := nvme.DefaultConfig("ssd0", testBAR)
	devCfg.Functional = true
	nvme.New(k, pl.Fabric, devCfg)
	mk := func(name string) *streamer.Streamer {
		cfg := streamer.DefaultConfig(name, 0, streamer.URAM)
		cfg.Functional = true
		return pl.AddStreamer(cfg)
	}
	stA, stB := mk("snaccA"), mk("snaccB")
	drv := NewDriver(pl, "ssd0", testBAR)
	failed := true
	k.Spawn("main", func(p *sim.Proc) {
		if err := drv.InitController(p); err != nil {
			t.Errorf("init: %v", err)
			return
		}
		if err := drv.AttachStreamer(p, stA, 1); err != nil {
			t.Errorf("attach A: %v", err)
			return
		}
		if err := drv.AttachStreamer(p, stB, 2); err != nil {
			t.Errorf("attach B: %v", err)
			return
		}
		a, b := streamer.NewClient(stA), streamer.NewClient(stB)
		// Concurrent disjoint writes from both streamers.
		const n = 4 * sim.MiB
		dataA, dataB := make([]byte, n), make([]byte, n)
		for i := range dataA {
			dataA[i], dataB[i] = byte(i), byte(i*3+1)
		}
		done := sim.NewChan[struct{}](k, 1)
		k.Spawn("writerB", func(bp *sim.Proc) {
			b.WriteErr(bp, uint64(64*sim.MiB), n, dataB)
			done.TryPut(struct{}{})
		})
		a.WriteErr(p, 0, n, dataA)
		done.Get(p)
		// Cross-read: each streamer reads what the other wrote.
		if got, err := a.ReadErr(p, uint64(64*sim.MiB), n); err != nil || !bytes.Equal(got, dataB) {
			t.Error("streamer A read of B's data corrupted")
			return
		}
		if got, err := b.ReadErr(p, 0, n); err != nil || !bytes.Equal(got, dataA) {
			t.Error("streamer B read of A's data corrupted")
			return
		}
		failed = false
	})
	k.Run(0)
	if failed {
		t.Fatal("two-streamer run did not complete")
	}
}
