// Package streamer implements SNAcc's core contribution: the NVMe Streamer
// IP (paper §4). It exposes four AXI4-Stream interfaces to a user PE (read
// command, read data, write, write response), owns the NVMe submission
// queue as a FIFO inside the IP and the completion queue as a reorder
// buffer, splits transfers into ≤1 MiB NVMe commands, synthesizes PRP-list
// entries on the fly (the bit-22 address trick for URAM, a command-ID
// register file for the DRAM variants), and retires completions strictly in
// order — issuing new commands only as head-of-line commands retire, the
// §7 policy whose random-read cost Figure 4b quantifies.
//
// Three buffer variants exist, exactly as in §4.3: 4 MB of on-die URAM
// shared between directions, 64+64 MB in on-board DRAM behind the single
// TaPaSCo memory controller, and 64+64 MB of pinned host DRAM stitched from
// 4 MiB chunks.
package streamer

import (
	"snacc/internal/axis"
	"snacc/internal/memmodel"
	"snacc/internal/sim"
)

// Variant selects the payload buffer memory (§4.3).
type Variant int

// The three NVMe Streamer variants from the paper.
const (
	URAM Variant = iota
	OnboardDRAM
	HostDRAM
)

// String names the variant as the paper does.
func (v Variant) String() string {
	switch v {
	case URAM:
		return "URAM"
	case OnboardDRAM:
		return "On-board DRAM"
	case HostDRAM:
		return "Host DRAM"
	default:
		return "unknown"
	}
}

// Window layout offsets. The URAM variant doubles its 4 MiB data space and
// uses bit 22 to select the PRP shadow half (Figure 2), so the data region
// must sit at a 8 MiB-aligned window base.
const (
	// PRPShadowBit is the address bit selecting the URAM PRP shadow.
	PRPShadowBit = 1 << 22
)

// Config parameterizes one NVMe Streamer instance.
type Config struct {
	// Name identifies the streamer (and its IOMMU grants).
	Name string
	// WindowBase is the bus address of the streamer's window inside the
	// FPGA BAR. Must be aligned to the window size.
	WindowBase uint64
	Variant    Variant
	// QueueDepth is the SQ depth / reorder-buffer size (64 in the paper).
	QueueDepth int
	// MaxCmdBytes is the per-NVMe-command split size (1 MiB in the paper).
	MaxCmdBytes int64
	// ReadBufBytes / WriteBufBytes size the payload buffers. The URAM
	// variant shares one buffer: set ReadBufBytes and leave WriteBufBytes
	// zero.
	ReadBufBytes  int64
	WriteBufBytes int64
	// StreamCfg parameterizes the four PE-facing AXI streams.
	StreamCfg axis.Config
	// SubmitOverhead is the submission FSM cost per command: stream beat
	// decode, buffer allocation, SQE build, doorbell (≈250 cycles at
	// 300 MHz).
	SubmitOverhead sim.Time
	// RetireReadCost / RetireWriteCost are the retirement FSM costs per
	// command. Reads pay for the in-order reorder-buffer walk plus the
	// shared-ring bookkeeping and drain control; writes only release
	// resources and emit a token. The read cost is the calibrated source
	// of the paper's flat 1.6 GB/s random-read ceiling (Figure 4b).
	RetireReadCost  sim.Time
	RetireWriteCost sim.Time
	// OOORetireReadCost replaces RetireReadCost when OutOfOrder is on: a
	// CID-indexed retirement engine skips the in-order walk and the ring
	// bookkeeping, so the §7 extension projects a leaner per-completion
	// cost.
	OOORetireReadCost sim.Time
	// DrainLatency is added when fetching retired read data from the
	// buffer before streaming it to the PE; it is the calibrated
	// per-variant gap in Figure 4c (URAM fastest, host DRAM slowest).
	DrainLatency sim.Time
	// AddressCalcOverhead is added to PRP window responses in the host
	// DRAM variant, covering the 4 MiB chunk stitching (§4.3).
	AddressCalcOverhead sim.Time
	// IOQueues shards the submission path across this many NVMe I/O queue
	// pairs (1..MaxIOQueues) with round-robin command placement; the
	// reorder buffer stays global, so retirement remains strictly in order
	// across queues. 0 or 1 keeps the paper's single-SQ model and its exact
	// event timeline.
	IOQueues int
	// DoorbellBatch coalesces doorbell writes: the SQ tail doorbell rings
	// once per DoorbellBatch submitted commands (with the final tail), and
	// CQ-head updates are likewise posted once per drained run of up to
	// DoorbellBatch completions. 0 or 1 rings per command, the paper's
	// behavior. A partial batch flushes after DoorbellFlush.
	DoorbellBatch int
	// DoorbellFlush is the debounce window for a partial doorbell batch:
	// each new command (or consumed completion) pushes the flush deadline
	// out by this much, so a steady stream rings at the batch threshold and
	// the timer only pays out when the stream pauses. Only used when
	// DoorbellBatch > 1.
	DoorbellFlush sim.Time
	// RetireCQCost and RetireDoorbellCost decompose RetireReadCost for the
	// multi-queue path: RetireCQCost is the CQ-engine bookkeeping portion,
	// replicated per queue pair and therefore divided by IOQueues when the
	// path is sharded; RetireDoorbellCost is the CQ-head doorbell update,
	// paid once per drained batch when DoorbellBatch > 1. The remainder
	// (RetireReadCost - RetireCQCost - RetireDoorbellCost) is the serial
	// in-order walk that no sharding removes. With IOQueues=1 and
	// DoorbellBatch=1 the sum equals RetireReadCost exactly, so the default
	// configuration reproduces the paper's timeline bit for bit.
	RetireCQCost       sim.Time
	RetireDoorbellCost sim.Time
	// OutOfOrder enables the §7 future-work extension: completions retire
	// as they arrive rather than in order. Buffers then come from a
	// fixed-size slot pool instead of the in-order ring.
	OutOfOrder bool
	// Functional moves real payload bytes end to end.
	Functional bool
	// CmdTimeout is the per-command completion deadline. When a command's
	// completion has not arrived CmdTimeout after (re)submission, the
	// watchdog fires: the command is resubmitted while retries remain,
	// otherwise aborted to the PE with nvme.StatusAbortRequested. Zero
	// disables the watchdog (the default) — a lost completion then hangs
	// the reorder-buffer head forever, so enable it whenever completions
	// can be lost. Must comfortably exceed the worst-case device latency,
	// or a merely slow command is double-submitted.
	CmdTimeout sim.Time
	// MaxRetries bounds resubmissions per command for retryable failures
	// (nvme.RetryableStatus errors and lost completions). Zero aborts on
	// the first failure.
	MaxRetries int
	// RetryBackoff is the delay before the first resubmission, doubling
	// with every further attempt (capped at 256x). Zero resubmits
	// immediately.
	RetryBackoff sim.Time
	// BreakerThreshold trips the controller-failure circuit breaker after
	// this many consecutive watchdog expiries with no intervening valid
	// completion — per-command retries stop and the recovery ladder takes
	// over: quiesce the PE streams, reset the controller (via the handler
	// installed with SetResetHandler), rebuild the queues, and replay the
	// in-flight window from the retained staging buffers. Zero disables the
	// breaker (per-command retries only, PR 2 behavior).
	BreakerThreshold int
	// MaxResets bounds controller reset attempts per breaker trip. When
	// they are exhausted (or no reset handler is installed) the controller
	// is declared dead: every in-flight and future command fails fast with
	// nvme.StatusControllerUnavailable — a terminal error flag on the
	// streams, never a hang.
	MaxResets int
	// CFSPollInterval, when positive, polls the controller status register
	// while commands are in flight and trips the breaker on a latched
	// fatal status (CSTS.CFS) or an all-1s read (surprise removal) without
	// waiting for CmdTimeout — the fast crash-detect path.
	CFSPollInterval sim.Time
}

// MaxIOQueues bounds Config.IOQueues: every variant's window layout
// reserves 2*ctrlRegionGap of control space per queue pair after the PRP
// region, and the tightest variant (host DRAM) has exactly room for 8 —
// matching the device model's MaxIOQueuePairs.
const MaxIOQueues = 8

// ioQueues returns the normalized queue-pair count.
func (c *Config) ioQueues() int {
	if c.IOQueues < 1 {
		return 1
	}
	return c.IOQueues
}

// doorbellBatch returns the normalized doorbell coalescing factor.
func (c *Config) doorbellBatch() int {
	if c.DoorbellBatch < 1 {
		return 1
	}
	return c.DoorbellBatch
}

// recoveryEnabled reports whether the watchdog/retry machinery is active.
func (c *Config) recoveryEnabled() bool {
	return c.CmdTimeout > 0 || c.MaxRetries > 0 || c.breakerEnabled()
}

// breakerEnabled reports whether the controller-failure circuit breaker is
// active.
func (c *Config) breakerEnabled() bool {
	return c.BreakerThreshold > 0 || c.CFSPollInterval > 0
}

// ArmRecovery sets the reference recovery settings: a 50 ms command
// deadline, sized for worst-case queue-depth bursts, and three retries
// starting 10 µs apart. With ladder set it also arms the controller-crash
// ladder: a two-timeout breaker, two reset attempts per trip, and a 1 ms
// status poll as the fast crash-detect path. Without ladder the breaker
// settings are left as they are.
func (c *Config) ArmRecovery(ladder bool) {
	c.CmdTimeout = 50 * sim.Millisecond
	c.MaxRetries = 3
	c.RetryBackoff = 10 * sim.Microsecond
	if ladder {
		c.BreakerThreshold = 2
		c.MaxResets = 2
		c.CFSPollInterval = sim.Millisecond
	}
}

// DefaultConfig returns the paper's configuration for a variant.
func DefaultConfig(name string, windowBase uint64, v Variant) Config {
	cfg := Config{
		Name:              name,
		WindowBase:        windowBase,
		Variant:           v,
		QueueDepth:        64,
		MaxCmdBytes:       sim.MiB,
		StreamCfg:         axis.DefaultConfig(),
		SubmitOverhead:    850 * sim.Nanosecond,
		RetireReadCost:    2500 * sim.Nanosecond,
		RetireWriteCost:   200 * sim.Nanosecond,
		OOORetireReadCost: 950 * sim.Nanosecond,
		// CQ bookkeeping + doorbell portions of RetireReadCost (multi-queue
		// decomposition); the serial in-order walk is the 600 ns remainder.
		RetireCQCost:       1400 * sim.Nanosecond,
		RetireDoorbellCost: 500 * sim.Nanosecond,
		DoorbellFlush:      4 * sim.Microsecond,
	}
	switch v {
	case URAM:
		cfg.ReadBufBytes = 4 * sim.MiB
		cfg.DrainLatency = 200 * sim.Nanosecond
	case OnboardDRAM:
		cfg.ReadBufBytes = 64 * sim.MiB
		cfg.WriteBufBytes = 64 * sim.MiB
		cfg.DrainLatency = 6500 * sim.Nanosecond
	case HostDRAM:
		cfg.ReadBufBytes = 64 * sim.MiB
		cfg.WriteBufBytes = 64 * sim.MiB
		cfg.DrainLatency = 11200 * sim.Nanosecond
		cfg.AddressCalcOverhead = 60 * sim.Nanosecond
	}
	return cfg
}

// Resources abstracts the memories and fabric attachments the streamer
// stages data in; the TaPaSCo platform layer provides them.
type Resources struct {
	// Local is the on-card memory backing the data window (URAM model or
	// the DRAM controller). nil for the HostDRAM variant.
	Local memmodel.Memory
	// LocalBase is the window-relative offset of the data region start
	// within Local (the DRAM variant reserves its buffer inside card
	// DRAM).
	LocalBase uint64
	// HostRead / HostWrite are the pinned host chunk sets for the
	// HostDRAM variant. nil otherwise.
	HostRead  *memmodel.ChunkedBuffer
	HostWrite *memmodel.ChunkedBuffer
}
