// Package casestudy reproduces the paper's §6 evaluation: an image stream
// arrives over 100 G Ethernet, is downscaled to 224×224, classified by a
// streaming MobileNet-V1 accelerator (FINN-generated in the paper), and
// both the original image and its classification are persisted to an NVMe
// SSD — autonomously on the FPGA for the three SNAcc variants, through host
// software for the SPDK reference, and through host+GPU for the A100
// reference. Figure 6 (bandwidth) and Figure 7 (PCIe traffic) come from
// these runs.
package casestudy

import (
	"snacc/internal/imagestream"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// Config parameterizes a case-study run.
type Config struct {
	// Images is the stream length. The paper uses 16384 (147 GB); the
	// default here is smaller so tests and benches finish quickly —
	// bandwidth reaches steady state within a few dozen frames.
	Images int
	// Source geometry (defaults reproduce the paper's ~9 MB frames).
	Source imagestream.Config
	// ScaledBytes is the classifier input size (224×224×3).
	ScaledBytes int64
	// RecordBytes is the classification record stored with each image,
	// padded to one LBA.
	RecordBytes int64
	// ClassifierFPS is the streaming accelerator's throughput; MobileNet-V1
	// via FINN is chosen "due to its high throughput, with the aim to truly
	// stress our infrastructure" — it must not be the bottleneck.
	ClassifierFPS float64
	// ClassifierLatency is the pipeline latency per image.
	ClassifierLatency sim.Time
	// EthernetFrameBytes is the aggregate frame size used on the wire.
	EthernetFrameBytes int64
	// EthernetMTU overrides the MAC's maximum frame payload (0 keeps the
	// default 9000-byte jumbo frames; 1500 models a standard-MTU fabric).
	// Smaller frames raise the per-frame overhead share and lower the
	// 100 G link's payload ceiling.
	EthernetMTU int64
	// UseSwitch inserts an intermediary Ethernet switch between the
	// transmitter and the receiving FPGA (§4.7: the pause protocol "also
	// works with intermediary switches").
	UseSwitch bool
	// BatchSize is the double-buffered batch for the SPDK and GPU
	// references ("we process the incoming data in batches – e.g., 32
	// images", §6.1).
	BatchSize int
	// GPU reference parameters.
	GPUScaleCPUPerImage sim.Time // CPU downscale cost per image
	GPUKernelPerBatch   sim.Time // A100 inference latency per batch
	// Functional moves real pixel bytes end to end (slow; tests only).
	Functional bool
	// Seed for deterministic content.
	Seed uint64
}

// DefaultConfig returns the paper's parameters with a shortened stream.
func DefaultConfig() Config {
	src := imagestream.DefaultConfig()
	src.Count = 192
	return Config{
		Images:              src.Count,
		Source:              src,
		ScaledBytes:         224 * 224 * 3,
		RecordBytes:         512,
		ClassifierFPS:       4000,
		ClassifierLatency:   800 * sim.Microsecond,
		EthernetFrameBytes:  64 * sim.KiB,
		BatchSize:           32,
		GPUScaleCPUPerImage: 95 * sim.Microsecond,
		GPUKernelPerBatch:   3600 * sim.Microsecond,
		Seed:                7,
	}
}

// Result summarizes one run.
type Result struct {
	Variant string
	Images  int
	// Bytes is the payload persisted to the SSD (images + records).
	Bytes   int64
	Elapsed sim.Time
	// PCIe accounts payload bytes delivered into each port (Figure 7) and
	// their total.
	PCIe      map[string]int64
	PCIeTotal int64
	// HostCPUBusy is accumulated data-path CPU time; BusyPolling marks
	// variants whose data-path thread spins at 100% regardless (§6.3).
	HostCPUBusy sim.Time
	BusyPolling bool
	// ImageLatency holds per-image end-to-end latency (last frame queued
	// at the transmitter → persistence acknowledged); SNAcc runs only.
	ImageLatency *sim.Histogram
	// EthernetPauses counts flow-control events at the transmitter.
	EthernetPauses int64
	FramesDropped  int64
	Errors         int64
}

// GBps returns persisted decimal gigabytes per second (Figure 6's y-axis).
func (r Result) GBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds() / 1e9
}

// FPS returns classified-and-stored frames per second.
func (r Result) FPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Images) / r.Elapsed.Seconds()
}

// imageWriteBytes is the per-image persisted payload: the raw frame padded
// to the LBA size plus one record block.
func (c Config) imageWriteBytes() int64 {
	img := imagestream.Image{Width: c.Source.Width, Height: c.Source.Height, Channels: c.Source.Channels}.Bytes()
	padded := (img + 511) &^ 511
	return padded + c.RecordBytes
}

// variantName labels SNAcc runs.
func variantName(v streamer.Variant) string { return "SNAcc/" + v.String() }
