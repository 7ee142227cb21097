package main

import (
	"fmt"
	"runtime"

	"snacc/internal/ethernet"
	"snacc/internal/memmodel"
	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/serve"
	"snacc/internal/sim"
	"snacc/internal/spdk"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

// A probe times one public entry point of one layer on a standalone
// instance built from exported constructors. Each probe runs in the mode
// of the workload it predicts: functional (real bytes) for the serve-4k
// and cluster-rw paths, timing-only for the casestudy paths.
type probe struct {
	name  string // metric prefix: <name>_ns and <name>_allocs
	calls int    // calls per timed batch
	// build returns a function that makes n calls and runs the simulation
	// until they complete.
	build func() (func(n int) error, error)
}

const ssdBAR = 0x10_0000_0000

var probes = []probe{
	{"sim.event", 1 << 16, probeSimEvent},
	{"pcie.mrd1m", 64, func() (func(int) error, error) { return probePCIe(true, 1<<20, false) }},
	{"pcie.mrd4k", 4096, func() (func(int) error, error) { return probePCIe(true, 4096, true) }},
	{"pcie.mwr1m", 64, func() (func(int) error, error) { return probePCIe(false, 1<<20, true) }},
	{"memmodel.dram4k", 8192, probeDRAM},
	{"nvme.read4k", 1024, func() (func(int) error, error) { return probeSPDK(false, 8, true) }},
	{"nvme.write1m", 64, func() (func(int) error, error) { return probeSPDK(true, 2048, false) }},
	{"streamer.read4k", 1024, func() (func(int) error, error) { return probeStreamer(streamer.URAM, false, 4096, true, false) }},
	{"streamer.write1m", 64, func() (func(int) error, error) {
		return probeStreamer(streamer.OnboardDRAM, true, 1<<20, false, false)
	}},
	{"streamer.tenant_read4k", 1024, func() (func(int) error, error) {
		return probeStreamer(streamer.URAM, false, 4096, true, true)
	}},
	{"ethernet.frame9k", 8192, probeEthernet},
	{"serve.capsule", 1 << 15, probeCapsule},
}

// probeResult is one probe's host cost per call.
type probeResult struct {
	ns, allocs float64
}

// runProbe warms the instance, then reports the median CPU ns per call over
// five batches and the mean allocations per call.
func runProbe(pr probe) (probeResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(roundProcs))
	calls, err := pr.build()
	if err != nil {
		return probeResult{}, fmt.Errorf("probe %s: %w", pr.name, err)
	}
	if err := calls(pr.calls / 4); err != nil {
		return probeResult{}, fmt.Errorf("probe %s: %w", pr.name, err)
	}
	var ns []float64
	var allocs uint64
	const batches = 5
	for b := 0; b < batches; b++ {
		runtime.GC()
		s := take()
		if err := calls(pr.calls); err != nil {
			return probeResult{}, fmt.Errorf("probe %s: %w", pr.name, err)
		}
		c := since(s)
		ns = append(ns, float64(c.cpu.Nanoseconds())/float64(pr.calls))
		allocs += c.mallocs
	}
	return probeResult{ns: median(ns), allocs: float64(allocs) / float64(batches*pr.calls)}, nil
}

// chain issues calls back to back, each started by the previous one's
// completion callback, and runs the kernel until the last completes.
func chain(k *sim.Kernel, issue func(done func())) func(n int) error {
	return func(n int) error {
		left := n
		var next func()
		next = func() {
			if left == 0 {
				return
			}
			left--
			issue(next)
		}
		next()
		k.Run(0)
		if left != 0 {
			return fmt.Errorf("%d calls never completed", left)
		}
		return nil
	}
}

// probeSimEvent schedules shuffled batches of events with Kernel.At and
// drains them with Run.
func probeSimEvent() (func(int) error, error) {
	k := sim.NewKernel()
	fired := 0
	fn := func() { fired++ }
	perm := make([]int, 4096)
	sim.NewRand(1).Perm(perm)
	return func(n int) error {
		want := fired + n
		for left := n; left > 0; left -= len(perm) {
			now := k.Now()
			for _, d := range perm[:min(left, len(perm))] {
				k.At(now+sim.Time(d)+1, fn)
			}
			k.Run(0)
		}
		if fired != want {
			return fmt.Errorf("fired %d events, want %d", fired, want)
		}
		return nil
	}, nil
}

// probePCIe reads (non-posted) or writes (posted) n bytes of host memory
// from an endpoint on the SSD's link, one transaction at a time.
func probePCIe(read bool, n int64, functional bool) (func(int) error, error) {
	k := sim.NewKernel()
	f := pcie.NewFabric(k, pcie.DefaultConfig())
	host := f.AttachHostPort("host", pcie.LinkConfig{Gen: pcie.Gen4, Lanes: 16},
		pcie.NewMemCompleter(k, 50e9, 90*sim.Nanosecond))
	f.MapRange(host, 0, 1<<30)
	ep := f.AttachPort("ssd0", nvme.DefaultConfig("ssd0", 0).Link, nil)
	f.IOMMU().Grant("ssd0", 0, 1<<30)
	var buf []byte
	if functional {
		buf = make([]byte, n)
	}
	var addr uint64
	return chain(k, func(done func()) {
		if read {
			ep.Read(addr, n, buf, done)
		} else {
			ep.Write(addr, n, buf, done)
		}
		addr = (addr + uint64(n)) % (64 << 20)
	}), nil
}

// probeDRAM streams timing-only 4 KiB reads through one DDR4 channel.
func probeDRAM() (func(int) error, error) {
	k := sim.NewKernel()
	d := memmodel.NewDRAM(k, memmodel.DefaultDRAMConfig())
	var addr uint64
	return chain(k, func(done func()) {
		d.ReadAccess(addr, 4096, nil, done)
		addr = (addr + 4096) % (64 << 20)
	}), nil
}

// probeSPDK issues NVMe commands of the given block count through the host
// SPDK-style driver, the thinnest public path onto the NVMe model.
func probeSPDK(write bool, blocks uint32, functional bool) (func(int) error, error) {
	k := sim.NewKernel()
	f := pcie.NewFabric(k, pcie.DefaultConfig())
	hc := pcie.DefaultHostConfig()
	host := pcie.NewHost(f, hc)
	dc := nvme.DefaultConfig("ssd0", ssdBAR)
	dc.Functional = functional
	nvme.New(k, f, dc)
	f.IOMMU().Grant("ssd0", hc.MemBase, hc.MemSize)
	cfg := spdk.DefaultDriverConfig()
	cfg.Functional = functional
	var d *spdk.Driver
	var err error
	k.Spawn("attach", func(p *sim.Proc) { d, err = spdk.Attach(p, host, ssdBAR, cfg) })
	k.Run(0)
	if err != nil {
		return nil, err
	}
	n := int64(blocks) * d.LBASize()
	bufAddr := d.AllocBuffer(n)
	var data []byte
	if functional {
		data = make([]byte, n)
	}
	span := uint64((64 << 20) / n)
	var i uint64
	return func(calls int) error {
		var ioErr error
		k.Spawn("io", func(p *sim.Proc) {
			for c := 0; c < calls && ioErr == nil; c++ {
				lba := (i % span) * uint64(blocks)
				i++
				if write {
					ioErr = d.Write(p, lba, blocks, bufAddr, data)
				} else {
					ioErr = d.Read(p, lba, blocks, bufAddr, data)
				}
			}
		})
		k.Run(0)
		return ioErr
	}, nil
}

// probeStreamer drives the NVMe Streamer through streamer.Client, or through
// tenant 0 of a two-tenant hub, on a TaPaSCo platform with the controller
// initialised by the TaPaSCo driver.
func probeStreamer(v streamer.Variant, write bool, n int64, functional, tenants bool) (func(int) error, error) {
	k := sim.NewKernel()
	pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
	dc := nvme.DefaultConfig("ssd0", ssdBAR)
	dc.Functional = functional
	nvme.New(k, pl.Fabric, dc)
	sc := streamer.DefaultConfig("snacc0", 0, v)
	sc.Functional = functional
	st := pl.AddStreamer(sc)
	drv := tapasco.NewDriver(pl, "ssd0", ssdBAR)
	var err error
	k.Spawn("init", func(p *sim.Proc) {
		if err = drv.InitController(p); err == nil {
			err = drv.AttachStreamer(p, st, 1)
		}
	})
	k.Run(0)
	if err != nil {
		return nil, err
	}
	var op func(p *sim.Proc, addr uint64) error
	if tenants {
		hub, err := streamer.NewTenantHub(k, st, []streamer.TenantConfig{
			{Weight: 1, LBAStart: 0, LBABytes: 64 << 20},
			{Weight: 2, LBAStart: 64 << 20, LBABytes: 64 << 20},
		}, streamer.HubOptions{})
		if err != nil {
			return nil, err
		}
		tc := hub.Client(0)
		op = func(p *sim.Proc, addr uint64) error {
			_, err := tc.ReadErr(p, addr, n)
			return err
		}
	} else {
		c := streamer.NewClient(st)
		op = func(p *sim.Proc, addr uint64) error {
			if write {
				return c.WriteErr(p, addr, n, nil)
			}
			_, err := c.ReadErr(p, addr, n)
			return err
		}
	}
	var addr uint64
	return func(calls int) error {
		var ioErr error
		k.Spawn("pe", func(p *sim.Proc) {
			for c := 0; c < calls && ioErr == nil; c++ {
				ioErr = op(p, addr)
				addr = (addr + uint64(n)) % (64 << 20)
			}
		})
		k.Run(0)
		return ioErr
	}, nil
}

// probeEthernet sends timing-only jumbo frames over one full-duplex link.
func probeEthernet() (func(int) error, error) {
	k := sim.NewKernel()
	cfg := ethernet.DefaultConfig()
	a, b := ethernet.NewMAC(k, "a", cfg), ethernet.NewMAC(k, "b", cfg)
	ethernet.Connect(a, b)
	return func(n int) error {
		got := 0
		k.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				a.Send(p, ethernet.Frame{Bytes: 9000})
			}
		})
		k.Spawn("rx", func(p *sim.Proc) {
			for ; got < n; got++ {
				b.Recv(p)
			}
		})
		k.Run(0)
		if got != n {
			return fmt.Errorf("received %d frames, want %d", got, n)
		}
		return nil
	}, nil
}

// probeCapsule encodes and decodes one 4 KiB read: the request capsule and
// its response carrying the data inline.
func probeCapsule() (func(int) error, error) {
	req := serve.Request{ID: 7, Conn: 42, Tenant: 1, Op: serve.OpRead, Addr: 1 << 20, N: 4096}
	resp := serve.Response{ID: 7, Conn: 42, Tenant: 1, N: 4096, Read: true, Payload: make([]byte, 4096)}
	buf := make([]byte, 0, 8192)
	return func(n int) error {
		for i := 0; i < n; i++ {
			b := serve.AppendRequest(buf[:0], req)
			r, _, err := serve.ParseRequest(b)
			if err != nil || r.ID != req.ID || r.N != req.N {
				return fmt.Errorf("request round trip: %+v, %v", r, err)
			}
			b = serve.AppendResponse(buf[:0], resp)
			rs, _, err := serve.ParseResponse(b)
			if err != nil || rs.ID != resp.ID || len(rs.Payload) != len(resp.Payload) {
				return fmt.Errorf("response round trip: id %d, %d payload bytes, %v", rs.ID, len(rs.Payload), err)
			}
		}
		return nil
	}, nil
}
