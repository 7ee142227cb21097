package tapasco

import (
	"errors"
	"fmt"

	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// binding ties a Streamer to the SSD whose I/O queues it drives, starting
// at device queue qid.
type binding struct {
	dev *nvme.Device
	st  *streamer.Streamer
	qid uint16
}

// AddSSD attaches an NVMe SSD to the platform's fabric and records it for
// Init. A zero cfg.BARBase leaves the register BAR to Fabric.Enumerate.
func (pl *Platform) AddSSD(cfg nvme.Config) *nvme.Device {
	dev := nvme.New(pl.K, pl.Fabric, cfg)
	pl.ssds = append(pl.ssds, dev)
	return dev
}

// Bind assigns st to dev. Init gives each Streamer the SSD's next free I/O
// queue pairs: qid 1 for the first Streamer bound to an SSD, and each later
// one starts after the IOQueues of those before it.
func (pl *Platform) Bind(dev *nvme.Device, st *streamer.Streamer) {
	qid := uint16(1)
	for _, b := range pl.binds {
		if b.dev == dev {
			qid = b.qid + uint16(b.st.IOQueues())
		}
	}
	pl.binds = append(pl.binds, binding{dev: dev, st: st, qid: qid})
}

// Init is the §4.6 host-side bring-up, run from process p: it loads one
// Driver per SSD, then, SSD by SSD in the order they were added, brings up
// the controller and attaches every Streamer bound to it. Afterwards the
// host is out of the data path.
func (pl *Platform) Init(p *sim.Proc) error {
	drvs := make([]*Driver, len(pl.ssds))
	for i, dev := range pl.ssds {
		cfg := dev.Config()
		drvs[i] = NewDriver(pl, cfg.Name, cfg.BARBase)
	}
	for i, dev := range pl.ssds {
		if err := drvs[i].InitController(p); err != nil {
			return fmt.Errorf("tapasco: init %s: %w", dev.Config().Name, err)
		}
		for _, b := range pl.binds {
			if b.dev != dev {
				continue
			}
			if err := drvs[i].AttachStreamer(p, b.st, b.qid); err != nil {
				return fmt.Errorf("tapasco: attach %s to %s: %w", b.st.Config().Name, dev.Config().Name, err)
			}
		}
	}
	return nil
}

// Boot runs Init in its own process and drains the kernel, for rigs that
// bring the platform up before any traffic. It fails when Init does or
// when Init never finishes.
func (pl *Platform) Boot() error {
	err := errors.New("tapasco: initialization stalled")
	pl.K.Spawn("init", func(p *sim.Proc) { err = pl.Init(p) })
	pl.K.Run(0)
	return err
}

// TraceSpans records the command spans of every bound Streamer in tr,
// including the fetch and execute stages each SSD reports for the queues
// its Streamers own. The device reports by (qid, cid); the CID is unique
// across one Streamer's queues (it is the reorder-buffer slot), so the
// owning Streamer maps it back to the command. Counters reports tr's span
// accounting.
func (pl *Platform) TraceSpans(tr *obs.Tracer) {
	pl.tr = tr
	for _, dev := range pl.ssds {
		var own []binding
		for _, b := range pl.binds {
			if b.dev == dev {
				b.st.SetTracer(tr)
				own = append(own, b)
			}
		}
		dev.SetCmdObserver(func(qid, cid uint16, stage obs.Stage, at sim.Time) {
			for _, b := range own {
				if qid >= b.qid && int(qid-b.qid) < b.st.IOQueues() {
					b.st.OnDeviceEvent(cid, stage, at)
					return
				}
			}
		})
	}
}

// TraceBoundary installs a PCIe tracer at st's staging-buffer boundary,
// where the paper's §5.2 ILA sits: the card port, filtered to the payload
// window, for the on-card variants; the host port for the host-DRAM
// variant. Only transfers of at least 4 KiB are captured, which skips SQ
// fetches and PRP reads.
func (pl *Platform) TraceBoundary(st *streamer.Streamer) *pcie.Tracer {
	tr := pcie.NewTracer(pl.K)
	cfg := st.Config()
	if cfg.Variant == streamer.HostDRAM {
		base := pl.cfg.Host.MemBase
		tr.Filter = func(addr uint64, n int64) bool { return addr >= base && n >= 4096 }
		pl.Host.Port.AttachTracer(tr)
		return tr
	}
	base, span := cfg.WindowBase, uint64(cfg.ReadBufBytes+cfg.WriteBufBytes)
	if cfg.Variant == streamer.URAM {
		span = uint64(cfg.ReadBufBytes)
	}
	tr.Filter = func(addr uint64, n int64) bool {
		return addr >= base && addr < base+span && n >= 4096
	}
	pl.Card.AttachTracer(tr)
	return tr
}
