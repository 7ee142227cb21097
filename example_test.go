package snacc_test

import (
	"bytes"
	"fmt"
	"strings"

	"snacc"
)

// The simplest possible use: build a system, write through the Streamer's
// AXI-stream interface, read back off the simulated NAND media.
func ExampleSystem_Execute() {
	sys := snacc.MustNewSystem(snacc.Options{Variant: snacc.URAM})
	payload := bytes.Repeat([]byte{0x42}, 4096)
	sys.Execute(func(h *snacc.Handle) {
		if err := h.Write(0, payload); err != nil {
			fmt.Println("write:", err)
			return
		}
		back, err := h.Read(0, 4096)
		fmt.Println("intact:", err == nil && bytes.Equal(back, payload))
	})
	st := sys.Stats()
	fmt.Println("commands retired:", st.CommandsRetired, "errors:", st.CommandErrors)
	// Output:
	// intact: true
	// commands retired: 2 errors: 0
}

// Timing-only mode measures bandwidth without moving content. The same
// seed always produces the same simulated timeline.
func ExampleSystem_Execute_timing() {
	f := false
	sys := snacc.MustNewSystem(snacc.Options{Variant: snacc.HostDRAM, Functional: &f, Seed: 1})
	var gbps float64
	sys.Execute(func(h *snacc.Handle) {
		const n = 256 << 20 // past the SSD write buffer's absorption ramp
		start := h.Now()
		h.WriteTimed(0, n)
		gbps = float64(n) / float64(h.Now()-start)
	})
	fmt.Println("host-DRAM variant sequential write ~6 GB/s:", gbps > 5.5 && gbps < 6.8)
	// Output:
	// host-DRAM variant sequential write ~6 GB/s: true
}

// Table 1 resource estimates come from the component cost book.
func ExampleSystem_Resources() {
	sys := snacc.MustNewSystem(snacc.Options{Variant: snacc.URAM})
	r := sys.Resources()
	fmt.Printf("LUT=%d FF=%d URAM blocks=%d\n", r.LUT, r.FF, r.URAMBlocks)
	// Output:
	// LUT=7260 FF=8388 URAM blocks=128
}

// Workload generators drive mixed access patterns through the Streamer.
func ExampleSystem_RunWorkload() {
	sys := snacc.MustNewSystem(snacc.Options{Variant: snacc.URAM})
	spec := snacc.DefaultWorkload()
	spec.TotalBytes = 8 << 20
	res, err := sys.RunWorkload(spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("all bytes moved:", res.BytesRead+res.BytesWritten == spec.TotalBytes)
	fmt.Println("mixed:", res.Reads > 0 && res.Writes > 0)
	// Output:
	// all bytes moved: true
	// mixed: true
}

// TableOne regenerates the paper's resource table programmatically.
func ExampleTableOne() {
	rows := snacc.TableOne()
	for _, r := range rows {
		fmt.Printf("%s: %d LUTs\n", r.Label, r.Resources.LUT)
	}
	// Output:
	// URAM: 7260 LUTs
	// On-board DRAM: 14063 LUTs
	// Host DRAM: 12228 LUTs
}

// I/O traces round-trip through a text format and replay through the
// Streamer, so captured workloads and synthetic ones share one path.
func ExampleSystem_ReplayTrace() {
	ops, err := snacc.ParseTrace(strings.NewReader(`
# three sequential 1 MiB reads, then a 4 KiB write
R 0 1M
R 1M 1M
R 2M 1M
W 4M 4096
`))
	if err != nil {
		fmt.Println("parse:", err)
		return
	}
	sys := snacc.MustNewSystem(snacc.Options{Variant: snacc.URAM})
	res, err := sys.ReplayTrace("example", ops)
	if err != nil {
		fmt.Println("replay:", err)
		return
	}
	fmt.Printf("%d reads, %d writes, %d bytes\n",
		res.Reads, res.Writes, res.BytesRead+res.BytesWritten)
	// Output:
	// 3 reads, 1 writes, 3149824 bytes
}
