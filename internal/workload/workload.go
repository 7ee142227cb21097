// Package workload provides deterministic storage workload generators and
// a runner that drives an NVMe Streamer with them: sequential and random
// streams (the paper's §5 microbenchmarks), Zipfian hotspots, and mixed
// read/write ratios — the access patterns a database built on SNAcc (§1's
// motivating use case) actually produces.
package workload

import (
	"fmt"
	"math"

	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// Pattern selects the address sequence.
type Pattern int

// Supported patterns.
const (
	Sequential Pattern = iota
	Random
	Zipfian
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Random:
		return "random"
	case Zipfian:
		return "zipfian"
	default:
		return "unknown"
	}
}

// Spec describes a workload.
type Spec struct {
	Name    string
	Pattern Pattern
	// ReadFraction in [0,1]: the probability each operation is a read.
	ReadFraction float64
	// IOBytes is the per-operation transfer size (512-aligned).
	IOBytes int64
	// SpanBytes bounds the addressed region.
	SpanBytes int64
	// TotalBytes ends the workload.
	TotalBytes int64
	// ZipfTheta skews the Zipfian distribution (0.99 is the YCSB default);
	// ZipfBuckets is the hot-set granularity.
	ZipfTheta   float64
	ZipfBuckets int
	Seed        uint64
}

// Validate reports configuration errors.
func (s Spec) Validate() error {
	switch {
	case s.IOBytes <= 0 || s.IOBytes%512 != 0:
		return fmt.Errorf("workload: IOBytes must be a positive multiple of 512")
	case s.SpanBytes < s.IOBytes:
		return fmt.Errorf("workload: span smaller than one operation")
	case s.TotalBytes < s.IOBytes:
		return fmt.Errorf("workload: total smaller than one operation")
	case s.ReadFraction < 0 || s.ReadFraction > 1:
		return fmt.Errorf("workload: read fraction outside [0,1]")
	case s.Pattern == Zipfian && (s.ZipfTheta <= 0 || s.ZipfTheta >= 1 || s.ZipfBuckets <= 0):
		return fmt.Errorf("workload: zipfian needs theta in (0,1) and positive buckets")
	}
	return nil
}

// Op is one generated operation.
type Op struct {
	Read bool
	Addr uint64
	N    int64
}

// Generator yields the deterministic operation sequence for a Spec.
type Generator struct {
	spec   Spec
	rng    *sim.Rand
	issued int64
	cursor uint64
	// zipfCDF holds the cumulative bucket weights.
	zipfCDF []float64
}

// NewGenerator validates the spec and builds a generator.
func NewGenerator(spec Spec) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{spec: spec, rng: sim.NewRand(spec.Seed)}
	if spec.Pattern == Zipfian {
		g.zipfCDF = buildZipfCDF(spec.ZipfTheta, spec.ZipfBuckets)
	}
	return g, nil
}

// buildZipfCDF precomputes the cumulative bucket weights of a Zipfian
// distribution with the given skew over buckets ranks.
func buildZipfCDF(theta float64, buckets int) []float64 {
	cdf := make([]float64, buckets)
	sum := 0.0
	for i := 0; i < buckets; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// zipfAddr draws one Zipfian-skewed address: a hot bucket by inverse CDF,
// then a uniform slot within it. It consumes exactly two rng draws.
func zipfAddr(rng *sim.Rand, cdf []float64, slots, ioBytes int64) uint64 {
	u := rng.Float64()
	lo, hi := 0, len(cdf)
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	bucketSlots := slots / int64(len(cdf))
	if bucketSlots == 0 {
		bucketSlots = 1
	}
	slot := int64(lo)*bucketSlots + rng.Int63n(bucketSlots)
	if slot >= slots {
		slot = slots - 1
	}
	return uint64(slot) * uint64(ioBytes)
}

// Next returns the next operation, or false when the workload is done.
func (g *Generator) Next() (Op, bool) {
	if g.issued >= g.spec.TotalBytes {
		return Op{}, false
	}
	g.issued += g.spec.IOBytes
	op := Op{N: g.spec.IOBytes}
	op.Read = g.rng.Float64() < g.spec.ReadFraction
	slots := g.spec.SpanBytes / g.spec.IOBytes
	switch g.spec.Pattern {
	case Sequential:
		op.Addr = g.cursor
		g.cursor += uint64(g.spec.IOBytes)
		if g.cursor+uint64(g.spec.IOBytes) > uint64(g.spec.SpanBytes) {
			g.cursor = 0
		}
	case Random:
		op.Addr = uint64(g.rng.Int63n(slots)) * uint64(g.spec.IOBytes)
	case Zipfian:
		op.Addr = zipfAddr(g.rng, g.zipfCDF, slots, g.spec.IOBytes)
	}
	return op, true
}

// Result summarizes a run.
type Result struct {
	Spec         Spec
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	Elapsed      sim.Time
}

// GBps is the combined throughput.
func (r Result) GBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.BytesRead+r.BytesWritten) / r.Elapsed.Seconds() / 1e9
}

// IOPS is the combined operation rate.
func (r Result) IOPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Reads+r.Writes) / r.Elapsed.Seconds()
}

// Run drives the streamer with the workload, pipelining operations against
// the Streamer's in-order window: reads and writes issue from one command
// process (preserving the shared-queue ordering of §4.2) while two
// consumer processes drain data and tokens.
func Run(p *sim.Proc, c *streamer.Client, spec Spec) (Result, error) {
	gen, err := NewGenerator(spec)
	if err != nil {
		return Result{}, err
	}
	res := drive(p, c, spec.Name, func() (TraceOp, bool) {
		op, ok := gen.Next()
		return TraceOp{Read: op.Read, Addr: op.Addr, N: op.N}, ok
	})
	res.Spec = spec
	return res, nil
}

// drive is the shared pipelined-issue harness behind Run and Replay: one
// command process issues the stream in order (preserving the shared-queue
// ordering of §4.2) while two consumer processes drain read data and write
// tokens, so issue never blocks on completion. Gap fields throttle issue.
func drive(p *sim.Proc, c *streamer.Client, name string, next func() (TraceOp, bool)) Result {
	k := p.Kernel()
	res := Result{Spec: Spec{Name: name}}
	start := p.Now()

	done := sim.NewChan[struct{}](k, 2)
	readsIssued := sim.NewChan[int64](k, 1<<20)
	writesIssued := sim.NewChan[int64](k, 1<<20)

	k.Spawn(name+".rdrain", func(rp *sim.Proc) {
		for {
			n := readsIssued.Get(rp)
			if n < 0 {
				done.TryPut(struct{}{})
				return
			}
			c.ReadDone(rp, 0)
			res.BytesRead += n
		}
	})
	k.Spawn(name+".wdrain", func(wp *sim.Proc) {
		for {
			n := writesIssued.Get(wp)
			if n < 0 {
				done.TryPut(struct{}{})
				return
			}
			c.WriteDone(wp, 0)
			res.BytesWritten += n
		}
	})

	for {
		op, ok := next()
		if !ok {
			break
		}
		if op.Gap > 0 {
			p.Sleep(op.Gap)
		}
		if op.Read {
			res.Reads++
			c.ReadAsync(p, 0, op.Addr, op.N)
			readsIssued.Put(p, op.N)
		} else {
			res.Writes++
			c.WriteAsync(p, 0, op.Addr, op.N, nil)
			writesIssued.Put(p, op.N)
		}
	}
	// Sentinels terminate the drains.
	readsIssued.Put(p, -1)
	writesIssued.Put(p, -1)
	done.Get(p)
	done.Get(p)
	res.Elapsed = p.Now() - start
	return res
}
