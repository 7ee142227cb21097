package sim

import (
	"fmt"
	"math"
	"sort"
)

// Histogram collects latency samples and reports order statistics. It keeps
// every sample; the experiment sizes in this repository stay small enough
// that exact percentiles are affordable and reproducible.
type Histogram struct {
	samples []Time
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(t Time) {
	h.samples = append(h.samples, t)
	h.sorted = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() Time {
	if len(h.samples) == 0 {
		return 0
	}
	var sum int64
	for _, s := range h.samples {
		sum += int64(s)
	}
	return Time(sum / int64(len(h.samples)))
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() Time {
	h.ensureSorted()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[0]
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() Time {
	h.ensureSorted()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[len(h.samples)-1]
}

// Percentile returns the p-th percentile (0 < p <= 100) by nearest-rank.
func (h *Histogram) Percentile(p float64) Time {
	h.ensureSorted()
	if len(h.samples) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(h.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(h.samples) {
		rank = len(h.samples) - 1
	}
	return h.samples[rank]
}

func (h *Histogram) ensureSorted() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// String summarizes the histogram for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
}
