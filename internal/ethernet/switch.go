package ethernet

import (
	"fmt"

	"snacc/internal/sim"
)

// Switch is a store-and-forward Ethernet switch with per-egress buffering
// and 802.3x participation: when an egress buffer fills (because the
// downstream receiver paused us), the switch pauses the corresponding
// ingress links — "intermediary switches ... will first pause locally
// before propagating the pause request further" (§4.7).
type Switch struct {
	k     *sim.Kernel
	name  string
	cfg   Config
	ports []*switchPort
	// BufferBytes bounds each egress queue.
	bufferBytes int64
	// framesDropped counts frames lost to egress-buffer overrun (only
	// possible with flow control disabled).
	framesDropped int64
}

// FramesDropped returns frames lost to egress-buffer overrun across all
// ports.
func (sw *Switch) FramesDropped() int64 { return sw.framesDropped }

// switchPort is one switch port: an ingress receiver plus an egress queue
// with its own transmitter toward the attached MAC.
type switchPort struct {
	sw   *Switch
	idx  int
	peer *MAC
	// crossOut, when set, is the shard edge toward the attached MAC's
	// domain; peer deliveries ride it instead of the switch kernel
	// (AttachCross).
	crossOut *sim.Edge

	egress   *sim.Chan[Frame]
	occupied int64
	wire     *sim.Pipe
	paused   sim.Time
	// renewing marks an active upstream-pause renewal chain for this
	// ingress port (pausing the attached MAC on behalf of a congested
	// egress).
	renewing bool
}

// NewSwitch creates a switch with n ports.
func NewSwitch(k *sim.Kernel, name string, cfg Config, n int, bufferBytes int64) *Switch {
	sw := &Switch{k: k, name: name, cfg: cfg, bufferBytes: bufferBytes}
	for i := 0; i < n; i++ {
		p := &switchPort{
			sw:     sw,
			idx:    i,
			egress: sim.NewChan[Frame](k, 1<<20),
			wire:   sim.NewPipe(k, cfg.BytesPerSec(), cfg.WireLatency),
		}
		sw.ports = append(sw.ports, p)
		k.Spawn(fmt.Sprintf("%s.port%d.tx", name, i), p.txLoop)
	}
	return sw
}

// Attach connects a MAC to switch port idx.
func (sw *Switch) Attach(idx int, m *MAC) {
	p := sw.ports[idx]
	p.peer = m
	m.peer = p
}

// AttachCross connects a MAC in another shard domain to switch port idx.
// toMAC runs from the switch's domain to the MAC's, fromMAC the reverse;
// both lookaheads must fit within the respective sender's WireLatency
// (Config.EdgeLookahead), the minimum lead time of every delivery a MAC or
// switch port schedules.
func (sw *Switch) AttachCross(idx int, m *MAC, toMAC, fromMAC *sim.Edge) error {
	if idx < 0 || idx >= len(sw.ports) {
		return fmt.Errorf("ethernet: switch %s has no port %d", sw.name, idx)
	}
	if toMAC == nil || fromMAC == nil {
		return fmt.Errorf("ethernet: AttachCross %s.port%d<->%s with nil edge", sw.name, idx, m.name)
	}
	if toMAC.From().Kernel() != sw.k || toMAC.To().Kernel() != m.k {
		return fmt.Errorf("ethernet: AttachCross %s.port%d->%s: edge does not run from the switch's domain to the MAC's",
			sw.name, idx, m.name)
	}
	if fromMAC.From().Kernel() != m.k || fromMAC.To().Kernel() != sw.k {
		return fmt.Errorf("ethernet: AttachCross %s->%s.port%d: edge does not run from the MAC's domain to the switch's",
			m.name, sw.name, idx)
	}
	if toMAC.Lookahead() > sw.cfg.EdgeLookahead() {
		return fmt.Errorf("ethernet: AttachCross %s.port%d->%s: edge lookahead %v exceeds wire latency %v",
			sw.name, idx, m.name, toMAC.Lookahead(), sw.cfg.EdgeLookahead())
	}
	if fromMAC.Lookahead() > m.cfg.EdgeLookahead() {
		return fmt.Errorf("ethernet: AttachCross %s->%s.port%d: edge lookahead %v exceeds wire latency %v",
			m.name, sw.name, idx, fromMAC.Lookahead(), m.cfg.EdgeLookahead())
	}
	p := sw.ports[idx]
	p.peer = m
	p.crossOut = toMAC
	m.peer = p
	m.crossOut = fromMAC
	return nil
}

// schedDeliver schedules a delivery toward the attached MAC at absolute
// time t, routing over the cross-domain edge when one is attached.
func (p *switchPort) schedDeliver(t sim.Time, fn func()) {
	if p.crossOut != nil {
		p.crossOut.At(t, fn)
		return
	}
	p.sw.k.At(t, fn)
}

// deliver implements receiver for ingress traffic arriving at any port: the
// MAC's peer pointer references the port, so pause frames from the attached
// MAC land here and pause this port's egress.
func (p *switchPort) deliver(f Frame) {
	if f.pause {
		if f.quanta == 0 {
			p.paused = p.sw.k.Now()
		} else {
			p.paused = p.sw.k.Now() + f.quanta
		}
		return
	}
	dst := f.DstPort
	if dst < 0 || dst >= len(p.sw.ports) {
		panic(fmt.Sprintf("ethernet: switch %s has no port %d", p.sw.name, dst))
	}
	out := p.sw.ports[dst]
	if out.occupied+f.Bytes > p.sw.bufferBytes && !p.sw.cfg.PauseEnabled {
		p.sw.framesDropped++
		return // no flow control and truly out of space
	}
	// With flow control on, the frame is retained even past the bound — a
	// real switch would have paused earlier via thresholds; a small elastic
	// margin keeps the frame-level model simple.
	out.occupied += f.Bytes
	if !out.egress.TryPut(f) {
		panic("ethernet: switch egress queue overflow")
	}
	// Threshold-based upstream pause, renewed on a timer while the egress
	// stays congested (new arrivals stop once upstream is paused, so
	// arrival-driven renewal alone would let the sender free-run whenever a
	// quanta lapses — the same reasoning as MAC.renewPause).
	if p.sw.cfg.PauseEnabled && float64(out.occupied) >= p.sw.cfg.HiWater*float64(p.sw.bufferBytes) {
		p.propagatePause(out)
	}
}

// propagatePause pauses the upstream MAC attached to this ingress port on
// behalf of the congested egress port out, renewing until out drains below
// the high watermark. Like MAC.renewPause, the renewal chain schedules
// events as long as congestion persists — a permanently stalled consumer
// therefore keeps the kernel's event queue non-empty, so simulations with
// such consumers must bound Kernel.Run with a horizon.
func (p *switchPort) propagatePause(out *switchPort) {
	if p.renewing {
		return
	}
	p.renewing = true
	p.renewUpstream(out)
}

func (p *switchPort) renewUpstream(out *switchPort) {
	if float64(out.occupied) < p.sw.cfg.HiWater*float64(p.sw.bufferBytes) {
		// Congestion cleared; let the last quanta lapse naturally.
		p.renewing = false
		return
	}
	quanta := p.sw.cfg.PauseQuanta
	peer := p.peer
	p.schedDeliver(p.sw.k.Now()+p.sw.cfg.WireLatency, func() {
		if peer != nil {
			peer.deliver(Frame{pause: true, quanta: quanta})
		}
	})
	p.sw.k.After(quanta/2, func() { p.renewUpstream(out) })
}

// txLoop drains the egress queue toward the attached MAC, honoring pause
// frames received from it. Like MAC.txLoop, the port blocks only for wire
// serialization; store-and-forward buffering and propagation add delivery
// *latency* while back-to-back frames pipeline.
func (p *switchPort) txLoop(proc *sim.Proc) {
	proc.SetDaemon(true)
	for {
		f := p.egress.Get(proc)
		for {
			if wait := p.paused - proc.Now(); wait > 0 && p.sw.cfg.PauseEnabled {
				proc.Sleep(wait)
				continue
			}
			break
		}
		if p.peer == nil {
			panic("ethernet: switch port transmitting with no attached MAC")
		}
		storeDelay := sim.TransferTime(minI64(f.Bytes, p.sw.cfg.MTU), p.sw.cfg.BytesPerSec())
		delivered := p.wire.Reserve(p.sw.cfg.WireBytes(f.Bytes))
		frame, peer := f, p.peer
		if p.crossOut == nil {
			p.sw.k.At(delivered+storeDelay, func() {
				p.occupied -= frame.Bytes
				peer.deliver(frame)
			})
		} else {
			// Split the delivery: egress accounting stays in the switch's
			// domain, the frame itself rides the edge into the MAC's.
			p.sw.k.At(delivered+storeDelay, func() { p.occupied -= frame.Bytes })
			p.crossOut.At(delivered+storeDelay, func() { peer.deliver(frame) })
		}
		proc.Sleep(delivered - p.sw.cfg.WireLatency - proc.Now())
	}
}
