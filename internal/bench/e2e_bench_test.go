package bench

import (
	"testing"

	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// benchmarkStreamerRead measures one full-stack read per iteration: client
// command in, SQE synthesis, controller fetch over the fabric, NAND read,
// DMA into the staging buffer, in-order retirement, and the drain to the PE
// stream. This is the end-to-end cost the kernel and buffer-pool work
// targets; run with -benchmem to watch steady-state allocations.
func benchmarkStreamerRead(b *testing.B, ioBytes int64) {
	rig := buildSNAcc(streamer.URAM, nil, nil)
	defer rig.k.Close()
	run := func() {
		rig.k.Spawn("bench", func(p *sim.Proc) { rig.c.ReadErr(p, 0, ioBytes) })
		rig.k.Run(0)
	}
	run() // warm the rig (queues created, pools primed)
	b.SetBytes(ioBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkStreamerRead4K(b *testing.B) { benchmarkStreamerRead(b, 4*sim.KiB) }

func BenchmarkStreamerRead1M(b *testing.B) { benchmarkStreamerRead(b, sim.MiB) }

// BenchmarkStreamerRead4KMultiQueue is the batched multi-queue variant of
// BenchmarkStreamerRead4K: four I/O queue pairs with doorbell coalescing at
// batch 8, so every iteration exercises the chunked round-robin placement,
// the deferred SQ-tail flush, and the batched CQ-head drain. The coalescing
// machinery (doorbell payloads recycled through bufpool, preallocated flush
// closures, the reused dbSlots scratch) must add exactly zero allocations:
// allocs/op here must match a single-queue read of the same 64 KiB — the
// residue both report is the fixed per-measure rig overhead (proc spawn,
// span roots), not the batched paths.
func BenchmarkStreamerRead4KMultiQueue(b *testing.B) {
	rig := buildSNAcc(streamer.URAM, func(cfg *streamer.Config) {
		cfg.IOQueues = 4
		cfg.DoorbellBatch = 8
	}, nil)
	defer rig.k.Close()
	run := func() {
		rig.k.Spawn("bench", func(p *sim.Proc) { rig.c.ReadErr(p, 0, 64*sim.KiB) })
		rig.k.Run(0)
	}
	run() // warm the rig (queues created, pools primed, dbSlots grown)
	b.SetBytes(64 * sim.KiB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
