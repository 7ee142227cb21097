package ethernet

import (
	"strings"
	"testing"

	"snacc/internal/sim"
)

func TestCrossDomainSwitchMatchesSerial(t *testing.T) {
	// Slow consumer behind a switch, with the destination MAC in its own
	// domain: propagated pause must throttle the source identically to the
	// single-kernel run.
	type result struct {
		done                sim.Time
		honored, dropped    int64
		received, swDropped int64
	}
	run := func(sharded bool) result {
		cfg := DefaultConfig()
		const frames = 300
		var src, dst *MAC
		var sw *Switch
		var kSrc, kDst *sim.Kernel
		var drive func()
		if !sharded {
			k := sim.NewKernel()
			sw = NewSwitch(k, "sw", cfg, 2, 512*sim.KiB)
			src, dst = NewMAC(k, "src", cfg), NewMAC(k, "dst", cfg)
			sw.Attach(0, src)
			sw.Attach(1, dst)
			kSrc, kDst = k, k
			drive = func() { k.Run(0) }
		} else {
			s := sim.NewShard()
			fabric, sink := s.AddDomain("fabric"), s.AddDomain("sink")
			look := cfg.EdgeLookahead()
			toMAC := s.MustConnect(fabric, sink, look)
			fromMAC := s.MustConnect(sink, fabric, look)
			sw = NewSwitch(fabric.Kernel(), "sw", cfg, 2, 512*sim.KiB)
			src = NewMAC(fabric.Kernel(), "src", cfg)
			dst = NewMAC(sink.Kernel(), "dst", cfg)
			sw.Attach(0, src)
			if err := sw.AttachCross(1, dst, toMAC, fromMAC); err != nil {
				t.Fatalf("AttachCross: %v", err)
			}
			kSrc, kDst = fabric.Kernel(), sink.Kernel()
			drive = func() { s.Run(0) }
		}
		kSrc.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < frames; i++ {
				src.Send(p, Frame{Bytes: 8192, DstPort: 1})
			}
		})
		var res result
		kDst.Spawn("rx", func(p *sim.Proc) {
			for got := int64(0); got < frames; got++ {
				dst.Recv(p)
				res.received++
			}
			res.done = p.Now()
		})
		drive()
		res.honored = src.PausesHonored()
		res.dropped = dst.FramesDropped()
		res.swDropped = sw.FramesDropped()
		return res
	}
	flat := run(false)
	if flat.dropped != 0 || flat.swDropped != 0 {
		t.Fatalf("single-kernel switch run dropped frames: %+v", flat)
	}
	if got := run(true); got != flat {
		t.Errorf("sharded result %+v differs from single-kernel %+v", got, flat)
	}
}

// TestAttachCrossValidation pins the build-time checks on a cross-domain
// switch port: the port must exist, both edges must be present and run
// between the switch's and the MAC's domains, and neither lookahead may
// exceed the sender's wire latency.
func TestAttachCrossValidation(t *testing.T) {
	cfg := DefaultConfig()
	s := sim.NewShard()
	left, right, other := s.AddDomain("left"), s.AddDomain("right"), s.AddDomain("other")
	b := NewMAC(right.Kernel(), "b", cfg)
	ab := s.MustConnect(left, right, cfg.EdgeLookahead())
	ba := s.MustConnect(right, left, cfg.EdgeLookahead())
	wrong := s.MustConnect(left, other, cfg.EdgeLookahead())
	// Lookahead beyond the wire latency would let the shard window overrun
	// deliveries the port schedules exactly WireLatency out.
	tooFar := s.MustConnect(left, right, cfg.EdgeLookahead()+1)

	sw := NewSwitch(left.Kernel(), "sw", cfg, 2, sim.MiB)
	if err := sw.AttachCross(5, b, ab, ba); err == nil {
		t.Error("out-of-range port accepted")
	}
	if err := sw.AttachCross(0, b, nil, ba); err == nil {
		t.Error("nil edge accepted by AttachCross")
	}
	if err := sw.AttachCross(0, b, wrong, ba); err == nil {
		t.Error("edge into the wrong domain accepted by AttachCross")
	}
	if err := sw.AttachCross(0, b, tooFar, ba); err == nil ||
		!strings.Contains(err.Error(), "lookahead") {
		t.Errorf("oversized lookahead via AttachCross: err = %v", err)
	}
	if err := sw.AttachCross(0, b, ab, ba); err != nil {
		t.Errorf("valid AttachCross failed: %v", err)
	}
	// The reverse-direction edge must also be validated.
	if err := sw.AttachCross(0, b, ab, wrong); err == nil {
		t.Error("reverse edge from the wrong domain accepted by AttachCross")
	}
}
