package streamer_test

import (
	"bytes"
	"fmt"
	"testing"

	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

const ssdBAR = 0x10_0000_0000

// blockingIO is the blocking read/write pair Client and Striped share.
type blockingIO interface {
	ReadErr(p *sim.Proc, addr uint64, n int64) ([]byte, error)
	WriteErr(p *sim.Proc, addr uint64, n int64, data []byte) error
}

// mustWrite is a blocking write that fails the test on an I/O error.
func mustWrite(t *testing.T, p *sim.Proc, c blockingIO, addr uint64, n int64, data []byte) {
	t.Helper()
	if err := c.WriteErr(p, addr, n, data); err != nil {
		t.Errorf("write %d@%#x: %v", n, addr, err)
	}
}

// mustRead is a blocking read that fails the test on an I/O error.
func mustRead(t *testing.T, p *sim.Proc, c blockingIO, addr uint64, n int64) []byte {
	t.Helper()
	data, err := c.ReadErr(p, addr, n)
	if err != nil {
		t.Errorf("read %d@%#x: %v", n, addr, err)
	}
	return data
}

// bootPairs assembles one platform with n SSD+Streamer pairs of variant v,
// span-traced into tr when it is non-nil, and runs the init sequence. Nil
// mutators are skipped.
func bootPairs(t *testing.T, n int, v streamer.Variant, functional bool, tr *obs.Tracer, mut ...func(*streamer.Config)) (*sim.Kernel, []*streamer.Streamer, []*nvme.Device) {
	t.Helper()
	pl := tapasco.NewPlatform(sim.NewKernel(), tapasco.DefaultU280())
	var sts []*streamer.Streamer
	var devs []*nvme.Device
	for i := 0; i < n; i++ {
		devCfg := nvme.DefaultConfig(fmt.Sprintf("ssd%d", i), ssdBAR+uint64(i)*0x100000)
		devCfg.Functional = functional
		dev := pl.AddSSD(devCfg)
		stCfg := streamer.DefaultConfig(fmt.Sprintf("snacc%d", i), 0, v)
		stCfg.Functional = functional
		for _, m := range mut {
			if m != nil {
				m(&stCfg)
			}
		}
		st := pl.AddStreamer(stCfg)
		pl.Bind(dev, st)
		sts, devs = append(sts, st), append(devs, dev)
	}
	if tr != nil {
		pl.TraceSpans(tr)
	}
	if err := pl.Boot(); err != nil {
		t.Fatal(err)
	}
	return pl.K, sts, devs
}

// rig assembles platform + SSD + one streamer and runs the init sequence.
func rig(t *testing.T, v streamer.Variant, functional bool, mut func(*streamer.Config)) (*sim.Kernel, *streamer.Client, *nvme.Device) {
	t.Helper()
	k, sts, devs := bootPairs(t, 1, v, functional, nil, mut)
	return k, streamer.NewClient(sts[0]), devs[0]
}

func variants() []streamer.Variant {
	return []streamer.Variant{streamer.URAM, streamer.OnboardDRAM, streamer.HostDRAM}
}

func TestWriteReadRoundTripAllVariants(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			k, c, dev := rig(t, v, true, nil)
			want := make([]byte, 3*sim.MiB+8192) // spans several 1 MiB pieces
			for i := range want {
				want[i] = byte(i*7 + int(v))
			}
			done := false
			k.Spawn("pe", func(p *sim.Proc) {
				mustWrite(t, p, c, 4096, int64(len(want)), want)
				got := mustRead(t, p, c, 4096, int64(len(want)))
				if !bytes.Equal(got, want) {
					t.Error("streamed data corrupted through NVMe round trip")
				}
				done = true
			})
			k.Run(0)
			if !done {
				t.Fatal("PE never finished")
			}
			if dev.Errors() != 0 {
				t.Fatalf("device errors: %d", dev.Errors())
			}
			// 3 MiB + 8 KiB → 4 write pieces + 4 read pieces.
			if got := c.Streamer().CommandsSubmitted(); got != 8 {
				t.Fatalf("commands submitted = %d, want 8", got)
			}
			if c.Streamer().CommandsRetired() != 8 {
				t.Fatalf("commands retired = %d, want 8", c.Streamer().CommandsRetired())
			}
		})
	}
}

func TestSmallUnalignedLengths(t *testing.T) {
	// 512-byte LBA granularity, sub-page and sub-piece sizes.
	k, c, _ := rig(t, streamer.URAM, true, nil)
	sizes := []int64{512, 4096, 8192, 12288, 65536}
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		addr := uint64(0)
		for _, n := range sizes {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(int64(i) + n)
			}
			mustWrite(t, p, c, addr, n, data)
			got := mustRead(t, p, c, addr, n)
			if !bytes.Equal(got, data) {
				t.Errorf("size %d round trip failed", n)
			}
			addr += uint64(n)
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
}

func TestReadOfUnwrittenReturnsZeros(t *testing.T) {
	k, c, _ := rig(t, streamer.URAM, true, nil)
	k.Spawn("pe", func(p *sim.Proc) {
		got := mustRead(t, p, c, uint64(512*sim.MiB), 8192)
		for _, b := range got {
			if b != 0 {
				t.Fatal("unwritten LBAs must read back as zeros")
				return
			}
		}
	})
	k.Run(0)
}

func TestPipelinedReadsStayOrdered(t *testing.T) {
	// Issue several reads back to back; data must come back in command
	// order with correct TLAST delimiters (in-order retirement).
	k, c, _ := rig(t, streamer.URAM, true, nil)
	const n = 64 * 1024
	k.Spawn("pe", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(i)
			}
			mustWrite(t, p, c, uint64(i*n), n, data)
		}
		for i := 0; i < 8; i++ {
			c.ReadAsync(p, 0, uint64(i*n), n)
		}
		for i := 0; i < 8; i++ {
			data, err := c.ReadDone(p, 0)
			if err != nil || len(data) != n {
				t.Errorf("read %d returned %d bytes (err=%v)", i, len(data), err)
				continue
			}
			if data[0] != byte(i) || data[n-1] != byte(i) {
				t.Errorf("read %d returned data for a different command", i)
			}
		}
	})
	k.Run(0)
}

func TestInterleavedReadsAndWrites(t *testing.T) {
	// The command queue is shared between reads and writes (§4.2).
	k, c, _ := rig(t, streamer.OnboardDRAM, true, nil)
	k.Spawn("pe", func(p *sim.Proc) {
		a := []byte("first block of data to persist..xx.............................")
		b := make([]byte, 512)
		copy(b, a)
		mustWrite(t, p, c, 0, 512, b)
		got := mustRead(t, p, c, 0, 512)
		mustWrite(t, p, c, 512, 512, got)
		got2 := mustRead(t, p, c, 512, 512)
		if !bytes.Equal(got2, b) {
			t.Error("interleaved read/write corrupted data")
		}
	})
	k.Run(0)
}

func TestInOrderRetirementWindow(t *testing.T) {
	// With QueueDepth in-flight commands, a new command must wait for the
	// head to retire: total submitted never exceeds retired + depth.
	k, c, _ := rig(t, streamer.URAM, false, func(cfg *streamer.Config) {
		cfg.QueueDepth = 4
	})
	k.Spawn("pe", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			c.ReadAsync(p, 0, uint64(i*4096), 4096)
		}
		for i := 0; i < 16; i++ {
			c.ReadDone(p, 0)
		}
		st := c.Streamer()
		if st.CommandsSubmitted() != 16 || st.CommandsRetired() != 16 {
			t.Errorf("submitted/retired = %d/%d, want 16/16",
				st.CommandsSubmitted(), st.CommandsRetired())
		}
	})
	k.Run(0)
}

func TestOutOfOrderVariantCompletes(t *testing.T) {
	k, c, _ := rig(t, streamer.OnboardDRAM, true, func(cfg *streamer.Config) {
		cfg.OutOfOrder = true
	})
	k.Spawn("pe", func(p *sim.Proc) {
		want := make([]byte, 2*sim.MiB)
		for i := range want {
			want[i] = byte(i % 251)
		}
		mustWrite(t, p, c, 0, int64(len(want)), want)
		got := mustRead(t, p, c, 0, int64(len(want)))
		if !bytes.Equal(got, want) {
			t.Error("out-of-order variant corrupted data")
		}
	})
	k.Run(0)
}

func TestPRPListSynthesisExercised(t *testing.T) {
	// A >8 KiB command forces a PRP list; the device must have read the
	// list from the streamer's PRP window (on-the-fly computation).
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			k, c, dev := rig(t, v, true, nil)
			k.Spawn("pe", func(p *sim.Proc) {
				data := make([]byte, sim.MiB)
				for i := range data {
					data[i] = byte(i / 4096)
				}
				mustWrite(t, p, c, 0, sim.MiB, data)
				got := mustRead(t, p, c, 0, sim.MiB)
				if !bytes.Equal(got, data) {
					t.Error("PRP-list transfer corrupted data")
				}
			})
			k.Run(0)
			if dev.Errors() != 0 {
				t.Fatalf("device rejected PRP-list command: %d errors", dev.Errors())
			}
		})
	}
}

func TestMultipleStreamersShareCard(t *testing.T) {
	// Two streamers (e.g. toward two SSDs) must coexist in one BAR.
	k, sts, _ := bootPairs(t, 2, streamer.URAM, true, nil)
	ok := false
	k.Spawn("pe", func(p *sim.Proc) {
		ca, cb := streamer.NewClient(sts[0]), streamer.NewClient(sts[1])
		mustWrite(t, p, ca, 0, 8192, bytes.Repeat([]byte{0xAA}, 8192))
		mustWrite(t, p, cb, 0, 8192, bytes.Repeat([]byte{0xBB}, 8192))
		gotA := mustRead(t, p, ca, 0, 8192)
		gotB := mustRead(t, p, cb, 0, 8192)
		if gotA[0] != 0xAA || gotB[0] != 0xBB {
			t.Error("streamers crossed data")
		}
		ok = true
	})
	k.Run(0)
	if !ok {
		t.Fatal("multi-streamer workload did not finish")
	}
}

func TestBufferWaveInvariant(t *testing.T) {
	// §4.2: "We only request as much data as can fit in our available data
	// buffer." A read four times the URAM buffer must proceed in waves with
	// staging occupancy bounded by the 4 MiB capacity — and actually use
	// most of it.
	k, c, _ := rig(t, streamer.URAM, false, nil)
	k.Spawn("pe", func(p *sim.Proc) {
		c.ReadAsync(p, 0, 0, 16*sim.MiB)
		c.ReadDone(p, 0)
	})
	k.Run(0)
	hw, _ := c.Streamer().BufferHighWater()
	if hw > 4*sim.MiB {
		t.Fatalf("staging high water %d exceeds the 4 MiB buffer", hw)
	}
	if hw < 2*sim.MiB {
		t.Fatalf("staging high water %d; the Streamer should keep the buffer busy", hw)
	}
	if got := c.Streamer().BytesToPE(); got != 16*sim.MiB {
		t.Fatalf("delivered %d of 16 MiB", got)
	}
}

func TestSeparateBuffersForDRAMVariant(t *testing.T) {
	// §4.3: the DRAM variants separate read and write channels into
	// distinct buffers — concurrent traffic must account independently.
	k, c, _ := rig(t, streamer.OnboardDRAM, false, nil)
	k.Spawn("w", func(p *sim.Proc) { mustWrite(t, p, c, 0, 8*sim.MiB, nil) })
	k.Spawn("r", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		c.ReadAsync(p, 0, 0, 8*sim.MiB)
		c.ReadDone(p, 0)
	})
	k.Run(0)
	rd, wr := c.Streamer().BufferHighWater()
	if rd == 0 || wr == 0 {
		t.Fatalf("high-water marks %d/%d; both buffers should have been used", rd, wr)
	}
	if rd > 64*sim.MiB || wr > 64*sim.MiB {
		t.Fatalf("buffer overrun: read %d write %d", rd, wr)
	}
}

func TestCommandLatencyHistograms(t *testing.T) {
	k, c, _, tr := tracedRig(t, streamer.URAM, nil)
	k.Spawn("pe", func(p *sim.Proc) {
		mustWrite(t, p, c, 0, 64*1024, nil)
		c.ReadAsync(p, 0, 0, 64*1024)
		c.ReadDone(p, 0)
	})
	k.Run(0)
	spans := tr.Spans()
	if len(spans) != 2 || !spans[0].Write || spans[1].Write {
		t.Fatalf("spans: %+v, want one write then one read", spans)
	}
	lat := func(sp obs.Span) sim.Time { return sp.Stages[obs.StageRetired] - sp.Stages[obs.StageSubmitted] }
	wr, rd := lat(spans[0]), lat(spans[1])
	// The NVMe read must include a NAND tR (>15us); the 64 KiB write
	// completes in the SSD buffer after its P2P fetch — faster than the
	// read, but not free.
	if rd < 15*sim.Microsecond {
		t.Errorf("read command latency %v below NAND tR", rd)
	}
	if wr <= 0 || wr >= rd {
		t.Errorf("write latency %v should undercut read latency %v (no tR)", wr, rd)
	}
}

func TestConfigValidationPanics(t *testing.T) {
	cases := []func(*streamer.Config){
		func(c *streamer.Config) { c.QueueDepth = 1 },
		func(c *streamer.Config) { c.MaxCmdBytes = 1000 },
		func(c *streamer.Config) { c.ReadBufBytes = 8 * sim.MiB }, // URAM must be 4 MiB shared
	}
	for i, mut := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d accepted", i)
				}
			}()
			k := sim.NewKernel()
			pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
			cfg := streamer.DefaultConfig("bad", 0, streamer.URAM)
			mut(&cfg)
			pl.AddStreamer(cfg)
		}()
	}
}
