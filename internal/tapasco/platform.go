// Package tapasco models the slice of the TaPaSCo framework SNAcc builds
// on (§2.1, §4.5, §4.6): the platform assembly that attaches the FPGA card
// to the PCIe fabric, carves BAR windows for plugins such as the NVMe
// Streamer, reserves card-DRAM regions behind the single memory controller,
// and the host-side driver that initializes the NVMe controller and wires
// its queues to the Streamer.
package tapasco

import (
	"fmt"

	"snacc/internal/memmodel"
	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// PlatformConfig selects the FPGA card model.
type PlatformConfig struct {
	// CardName appears in fabric diagnostics and IOMMU grants.
	CardName string
	// Link is the card's PCIe attachment (Alveo U280: Gen3 x16).
	Link pcie.LinkConfig
	// BARBase / BARSize locate the card's memory BAR. TaPaSCo creates a
	// 64 MB BAR by default; designs that map on-board DRAM grow it (§4.5:
	// "a second BAR register has to be added once more than 8 MB of
	// memory is utilized") — the model folds both into one window.
	BARBase uint64
	BARSize int64
	// DRAM parameterizes the single on-card memory controller TaPaSCo
	// instantiates.
	DRAM memmodel.DRAMConfig
	// Host attachment parameters.
	Host pcie.HostConfig
}

// DefaultU280 returns the Alveo U280 profile used in the paper's testbed.
func DefaultU280() PlatformConfig {
	return PlatformConfig{
		CardName: "u280",
		Link: pcie.LinkConfig{
			Gen:                pcie.Gen3,
			Lanes:              16,
			MaxPayload:         512,
			MaxReadRequest:     4096,
			ReadCredits:        8,
			PropagationLatency: 150 * sim.Nanosecond,
		},
		BARBase: 0x20_0000_0000,
		BARSize: sim.GiB,
		DRAM:    memmodel.DefaultDRAMConfig(),
		Host:    pcie.DefaultHostConfig(),
	}
}

// DefaultXUPVVH returns the second platform the SNAcc plugin supports
// (§4.5): the Bittware XUP-VVH (VU37P). Same PCIe attachment; its four
// DDR4 DIMMs give the single TaPaSCo controller a deeper memory.
func DefaultXUPVVH() PlatformConfig {
	cfg := DefaultU280()
	cfg.CardName = "xupvvh"
	cfg.DRAM.Size = 4 * 16 * sim.GiB
	return cfg
}

// Platform is an assembled system: host, fabric, FPGA card.
type Platform struct {
	K      *sim.Kernel
	Fabric *pcie.Fabric
	Host   *pcie.Host
	Card   *pcie.Port
	Router *pcie.RangeRouter
	DRAM   *memmodel.DRAM

	cfg     PlatformConfig
	barBrk  uint64
	dramBrk uint64

	// PE composition (pe.go), DMA engine and interrupt plumbing.
	slots    map[uint32][]*peSlot
	allSlots []*peSlot
	dma      *DMAEngine
	msiBase  uint64

	// Bring-up inventory (bringup.go): SSDs in the order added, and the
	// Streamer bound to each queue range.
	ssds  []*nvme.Device
	binds []binding
}

// NewPlatform assembles fabric, host and card.
func NewPlatform(k *sim.Kernel, cfg PlatformConfig) *Platform {
	f := pcie.NewFabric(k, pcie.DefaultConfig())
	host := pcie.NewHost(f, cfg.Host)
	router := &pcie.RangeRouter{}
	card := f.AttachPort(cfg.CardName, cfg.Link, router)
	card.DeclareIdentity(pcie.Identity{
		Vendor:   0x10EE, // Xilinx
		Device:   0x5000,
		Class:    pcie.ClassFPGA,
		BARBytes: cfg.BARSize,
	})
	f.MapRange(card, cfg.BARBase, cfg.BARSize)
	return &Platform{
		K:      k,
		Fabric: f,
		Host:   host,
		Card:   card,
		Router: router,
		DRAM:   memmodel.NewDRAM(k, cfg.DRAM),
		cfg:    cfg,
		barBrk: cfg.BARBase,
	}
}

// Config returns the platform configuration.
func (pl *Platform) Config() PlatformConfig { return pl.cfg }

// AllocWindow reserves a size-aligned window in the card BAR.
func (pl *Platform) AllocWindow(size int64) uint64 {
	if size <= 0 || size&(size-1) != 0 {
		panic("tapasco: BAR windows must be power-of-two sized")
	}
	base := (pl.barBrk + uint64(size) - 1) &^ (uint64(size) - 1)
	if base+uint64(size) > pl.cfg.BARBase+uint64(pl.cfg.BARSize) {
		panic(fmt.Sprintf("tapasco: BAR exhausted allocating %d bytes", size))
	}
	pl.barBrk = base + uint64(size)
	return base
}

// ReserveDRAM takes a region of card DRAM away from user logic ("we must
// reserve space in DRAM that cannot be used by the user application",
// §5.4) and returns its offset in the DRAM address space.
func (pl *Platform) ReserveDRAM(n int64) uint64 {
	if pl.dramBrk+uint64(n) > uint64(pl.DRAM.Size()) {
		panic("tapasco: card DRAM exhausted")
	}
	off := pl.dramBrk
	pl.dramBrk += uint64(n)
	return off
}

// AddStreamer instantiates an NVMe Streamer plugin: allocates its BAR
// window, provisions the variant's buffer memory, and wires its windows
// into the card's address decode.
func (pl *Platform) AddStreamer(cfg streamer.Config) *streamer.Streamer {
	var res streamer.Resources
	switch cfg.Variant {
	case streamer.URAM:
		res.Local = memmodel.NewURAM(pl.K, memmodel.URAMConfig{
			Size:       cfg.ReadBufBytes,
			WidthBytes: 64,
			ClockHz:    300e6,
			Latency:    100 * sim.Nanosecond,
		})
	case streamer.OnboardDRAM:
		res.Local = pl.DRAM
		res.LocalBase = pl.ReserveDRAM(cfg.ReadBufBytes + cfg.WriteBufBytes)
	case streamer.HostDRAM:
		// The kernel driver can only pin 4 MiB contiguous chunks (§4.3).
		const chunk = 4 * sim.MiB
		res.HostRead = memmodel.NewChunkedBuffer(chunk, pl.Host.AllocChunks(int(cfg.ReadBufBytes/chunk), chunk))
		res.HostWrite = memmodel.NewChunkedBuffer(chunk, pl.Host.AllocChunks(int(cfg.WriteBufBytes/chunk), chunk))
	}
	// Probe the window size by building a temporary config-only instance:
	// the layout depends only on the configuration.
	size := streamer.WindowSizeFor(cfg)
	cfg.WindowBase = pl.AllocWindow(size)
	return streamer.New(pl.K, cfg, res, pl.Card, pl.Router)
}

// AddStreamerHBM instantiates an on-card-buffer Streamer whose staging
// memory is the HBM stack instead of the single DDR4 controller — the §7
// proposal for multi-SSD setups ("leverage HBM and distribute data buffers
// across different HBM controllers"). The variant must be OnboardDRAM.
func (pl *Platform) AddStreamerHBM(cfg streamer.Config, hbm *memmodel.HBM) *streamer.Streamer {
	if cfg.Variant != streamer.OnboardDRAM {
		panic("tapasco: HBM staging applies to the on-card-buffer variant")
	}
	res := streamer.Resources{Local: hbm, LocalBase: 0}
	size := streamer.WindowSizeFor(cfg)
	cfg.WindowBase = pl.AllocWindow(size)
	return streamer.New(pl.K, cfg, res, pl.Card, pl.Router)
}
