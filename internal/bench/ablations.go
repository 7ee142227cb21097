package bench

import (
	"fmt"

	"snacc/internal/casestudy"
	"snacc/internal/ethernet"
	"snacc/internal/memmodel"
	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/spdk"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

// AblationQDRow compares random-read bandwidth across submission queue
// depths — §5.2 observes that SPDK keeps scaling with queue size while the
// Streamer's in-order retirement stays flat, and §7 proposes increasing the
// queue as one mitigation.
type AblationQDRow struct {
	QueueDepth int
	SPDKGB     float64
	SNAccGB    float64
}

// AblationQD sweeps the queue depth for 4 KiB random reads.
func AblationQD(depths []int, totalBytes int64) []AblationQDRow {
	const span = 64 * sim.GiB
	return mapRows(len(depths), func(i int) AblationQDRow {
		qd := depths[i]
		var spdkGB float64
		measureSPDK(qd, nil, func(p *sim.Proc, d *spdk.Driver) {
			spdkGB = spdkRand(p, d, nvme.OpRead, totalBytes)
		})

		rig := buildSNAcc(streamer.URAM, func(c *streamer.Config) { c.QueueDepth = qd }, nil)
		var snGB float64
		rig.measure(func(p *sim.Proc) {
			snGB = streamer.RandRead(p, rig.c, span, totalBytes, 4096, 13).GBps()
		})
		return AblationQDRow{QueueDepth: qd, SPDKGB: spdkGB, SNAccGB: snGB}
	})
}

// AblationOOORow compares in-order vs out-of-order retirement (§7).
type AblationOOORow struct {
	Label      string
	RandReadGB float64
	SeqReadGB  float64
}

// AblationOOO measures the §7 out-of-order retirement extension against the
// paper's in-order baseline on the on-board DRAM variant.
func AblationOOO(totalBytes int64) []AblationOOORow {
	const span = 64 * sim.GiB
	return mapRows(2, func(i int) AblationOOORow {
		ooo := i == 1
		label := "in-order (paper)"
		if ooo {
			label = "out-of-order (§7)"
		}
		rig := buildSNAcc(streamer.OnboardDRAM, func(c *streamer.Config) {
			c.OutOfOrder = ooo
			if ooo {
				// The slot pool sizes by MaxCmdBytes; random 4 KiB reads
				// need many small slots.
				c.MaxCmdBytes = 64 * sim.KiB
			}
		}, nil)
		var rr, sr float64
		rig.measure(func(p *sim.Proc) {
			rr = streamer.RandRead(p, rig.c, span, totalBytes, 4096, 13).GBps()
			sr = streamer.SeqRead(p, rig.c, 0, totalBytes).GBps()
		})
		return AblationOOORow{Label: label, RandReadGB: rr, SeqReadGB: sr}
	})
}

// AblationMultiSSDRow is the §7 multi-SSD scaling experiment.
type AblationMultiSSDRow struct {
	SSDs        int
	SeqWriteGB  float64
	PerSSDWrite float64
}

// AblationMultiSSD attaches n Streamer+SSD pairs to one card and measures
// aggregate sequential write bandwidth — §7: "Our design can easily be
// extended to access multiple SSDs concurrently ... separate submission and
// completion queues for each SSD".
func AblationMultiSSD(counts []int, perSSDBytes int64) []AblationMultiSSDRow {
	return mapRows(len(counts), func(ci int) AblationMultiSSDRow {
		n := counts[ci]
		k := sim.NewKernel()
		defer k.Close()
		pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
		var clients []*streamer.Client
		for i := 0; i < n; i++ {
			dev := pl.AddSSD(nvme.DefaultConfig(fmt.Sprintf("ssd%d", i), uint64(ssdBAR)+uint64(i)*0x1000_0000))
			// URAM windows are cheap; one per SSD keeps queues separate.
			st := pl.AddStreamer(streamer.DefaultConfig(fmt.Sprintf("snacc%d", i), 0, streamer.URAM))
			pl.Bind(dev, st)
			clients = append(clients, streamer.NewClient(st))
		}
		var start, end sim.Time
		done := 0
		k.Spawn("main", func(p *sim.Proc) {
			if err := pl.Init(p); err != nil {
				panic(err)
			}
			start = p.Now()
			fin := sim.NewChan[struct{}](k, n)
			for i := 0; i < n; i++ {
				c := clients[i]
				k.Spawn(fmt.Sprintf("w%d", i), func(wp *sim.Proc) {
					streamer.SeqWrite(wp, c, 0, perSSDBytes)
					fin.TryPut(struct{}{})
				})
			}
			for done < n {
				fin.Get(p)
				done++
			}
			end = p.Now()
		})
		k.Run(0)
		agg := float64(perSSDBytes*int64(n)) / (end - start).Seconds() / 1e9
		return AblationMultiSSDRow{SSDs: n, SeqWriteGB: agg, PerSSDWrite: agg / float64(n)}
	})
}

// AblationGen5Row is the §7 PCIe 5.0 projection.
type AblationGen5Row struct {
	Label      string
	SeqReadGB  float64
	SeqWriteGB float64
}

// AblationGen5 swaps in a Gen5 x4 SSD profile ("Current NVMe SSDs support
// PCIe Gen5 x4, doubling the bandwidth") and re-measures the URAM variant.
// The Streamer needs no modification, exactly as §7 claims.
func AblationGen5(totalBytes int64) []AblationGen5Row {
	gen5 := func(c *nvme.Config) {
		c.Link.Gen = 5
		c.NAND.SeqReadBW = sim.GBps(12.4)
		c.NAND.ProgramBWFast = sim.GBps(11.8)
		c.NAND.ProgramBWSlow = sim.GBps(11.2)
		// Faster links also sharpened P2P handling on newer platforms;
		// give the data-fetch engine a deeper window.
		c.Link.ReadCredits = 8
	}
	muts := []func(*nvme.Config){nil, gen5}
	return mapRows(len(muts), func(i int) AblationGen5Row {
		mut := muts[i]
		label := "Gen4 x4 (990 PRO)"
		if mut != nil {
			label = "Gen5 x4 (projected)"
		}
		rig := buildSNAcc(streamer.URAM, nil, mut)
		var rd, wr float64
		rig.measure(func(p *sim.Proc) {
			rd = streamer.SeqRead(p, rig.c, 0, totalBytes).GBps()
			wr = streamer.SeqWrite(p, rig.c, 0, totalBytes).GBps()
		})
		return AblationGen5Row{Label: label, SeqReadGB: rd, SeqWriteGB: wr}
	})
}

// AblationDRAMRow quantifies the on-board DRAM turnaround penalty.
type AblationDRAMRow struct {
	Label      string
	SeqWriteGB float64
}

// AblationDRAM compares the paper's single DRAM controller against the §5.2
// remedy ("utilizing two DRAM controllers or distinct HBM memory banks"),
// modeled as a controller without read/write turnaround and row-miss
// penalties between the competing streams.
func AblationDRAM(totalBytes int64) []AblationDRAMRow {
	return mapRows(2, func(i int) AblationDRAMRow {
		dual := i == 1
		label := "single controller (paper)"
		if dual {
			label = "dual controller / HBM (§7)"
		}
		k := sim.NewKernel()
		defer k.Close()
		plCfg := tapasco.DefaultU280()
		if dual {
			plCfg.DRAM.Turnaround = 0
			plCfg.DRAM.RowMissPenalty = 0
		}
		pl := tapasco.NewPlatform(k, plCfg)
		dev := pl.AddSSD(nvme.DefaultConfig("ssd0", ssdBAR))
		st := pl.AddStreamer(streamer.DefaultConfig("snacc0", 0, streamer.OnboardDRAM))
		pl.Bind(dev, st)
		var wr float64
		k.Spawn("main", func(p *sim.Proc) {
			if err := pl.Init(p); err != nil {
				panic(err)
			}
			wr = streamer.SeqWrite(p, streamer.NewClient(st), 0, totalBytes).GBps()
		})
		k.Run(0)
		return AblationDRAMRow{Label: label, SeqWriteGB: wr}
	})
}

// AblationHBMRow compares the staging memory for the on-card variant.
type AblationHBMRow struct {
	Label      string
	SeqWriteGB float64
	SeqReadGB  float64
}

// AblationHBM stages the on-card buffers in the U280's HBM stack instead of
// the single DDR4 controller — §7: "we can leverage HBM and distribute data
// buffers across different HBM controllers to maximize parallelism and
// bandwidth".
func AblationHBM(totalBytes int64) []AblationHBMRow {
	return mapRows(2, func(i int) AblationHBMRow {
		hbm := i == 1
		label := "DDR4, single controller (paper)"
		if hbm {
			label = "HBM2, 32 channels (§7)"
		}
		k := sim.NewKernel()
		defer k.Close()
		pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
		dev := pl.AddSSD(nvme.DefaultConfig("ssd0", ssdBAR))
		cfg := streamer.DefaultConfig("snacc0", 0, streamer.OnboardDRAM)
		var st *streamer.Streamer
		if hbm {
			// HBM's channel parallelism also shortens the drain path.
			cfg.DrainLatency = 1500 * sim.Nanosecond
			st = pl.AddStreamerHBM(cfg, memmodel.NewHBM(k, memmodel.DefaultHBMConfig()))
		} else {
			st = pl.AddStreamer(cfg)
		}
		pl.Bind(dev, st)
		var wr, rd float64
		k.Spawn("main", func(p *sim.Proc) {
			if err := pl.Init(p); err != nil {
				panic(err)
			}
			c := streamer.NewClient(st)
			wr = streamer.SeqWrite(p, c, 0, totalBytes).GBps()
			rd = streamer.SeqRead(p, c, 0, totalBytes).GBps()
		})
		k.Run(0)
		return AblationHBMRow{Label: label, SeqWriteGB: wr, SeqReadGB: rd}
	})
}

// AblationMTURow compares the network-bound §7 striped configuration across
// Ethernet frame payloads: per-frame overhead (preamble, header, FCS, IFG)
// is fixed, so smaller MTUs lower the 100 G link's payload ceiling — and the
// 3-SSD pipeline, which A7 shows is network-limited, tracks that ceiling.
type AblationMTURow struct {
	MTU int64
	// CeilingGB is the analytic payload ceiling: 12.5 GB/s × MTU/(MTU+38).
	CeilingGB float64
	// CaseGB is the measured striped-3 case-study bandwidth.
	CaseGB float64
	FPS    float64
}

// AblationMTU sweeps the Ethernet MTU for the 3-SSD striped case study.
func AblationMTU(mtus []int64, images int) []AblationMTURow {
	return mapRows(len(mtus), func(i int) AblationMTURow {
		mtu := mtus[i]
		cfg := casestudy.DefaultConfig()
		if images > 0 {
			cfg.Images = images
			cfg.Source.Count = images
		}
		cfg.EthernetMTU = mtu
		res := casestudy.RunSNAccStriped(3, cfg)
		ecfg := ethernet.DefaultConfig()
		ceiling := ecfg.BytesPerSec() * float64(mtu) / float64(mtu+ecfg.FrameOverheadBytes) / 1e9
		return AblationMTURow{MTU: mtu, CeilingGB: ceiling, CaseGB: res.GBps(), FPS: res.FPS()}
	})
}

// AblationQPRow is one point of the queue-pair scaling sweep: n Streamers
// sharing one SSD over n I/O queue pairs.
type AblationQPRow struct {
	Streamers  int
	SeqWriteGB float64
	RandReadGB float64
}

// AblationQP attaches n Streamers to ONE controller (queue pairs 1..n) —
// §7's observation that "each additional NVMe Streamer only requires one
// additional queue pair". Contrast with AblationMultiSSD: sequential writes
// stay at the single-SSD NAND ceiling no matter how many queues feed it,
// while 4 KiB random reads scale with the streamer count because each
// streamer's in-order retirement FSM is a per-queue bottleneck, not a
// device limit.
func AblationQP(counts []int, totalBytes int64) []AblationQPRow {
	const span = 64 * sim.GiB
	return mapRows(len(counts), func(ci int) AblationQPRow {
		n := counts[ci]
		row := AblationQPRow{Streamers: n}
		for _, random := range []bool{false, true} {
			k := sim.NewKernel()
			pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
			dev := pl.AddSSD(nvme.DefaultConfig("ssd0", ssdBAR))
			var clients []*streamer.Client
			for i := 0; i < n; i++ {
				st := pl.AddStreamer(streamer.DefaultConfig(fmt.Sprintf("snacc%d", i), 0, streamer.URAM))
				pl.Bind(dev, st)
				clients = append(clients, streamer.NewClient(st))
			}
			per := totalBytes / int64(n)
			var start, end sim.Time
			random := random
			k.Spawn("main", func(p *sim.Proc) {
				if err := pl.Init(p); err != nil {
					panic(err)
				}
				start = p.Now()
				fin := sim.NewChan[struct{}](k, n)
				for i := 0; i < n; i++ {
					c := clients[i]
					base := uint64(i) * uint64(span/int64(n))
					k.Spawn(fmt.Sprintf("w%d", i), func(wp *sim.Proc) {
						if random {
							streamer.RandRead(wp, c, span/int64(n), per, 4096, uint64(31+i))
						} else {
							streamer.SeqWrite(wp, c, base, per)
						}
						fin.TryPut(struct{}{})
					})
				}
				for done := 0; done < n; done++ {
					fin.Get(p)
				}
				end = p.Now()
			})
			k.Run(0)
			k.Close()
			gb := float64(totalBytes) / (end - start).Seconds() / 1e9
			if random {
				row.RandReadGB = gb
			} else {
				row.SeqWriteGB = gb
			}
		}
		return row
	})
}
