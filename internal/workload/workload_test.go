package workload

import (
	"math"
	"testing"
	"testing/quick"

	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

func baseSpec(p Pattern, readFrac float64) Spec {
	return Spec{
		Name:         "t",
		Pattern:      p,
		ReadFraction: readFrac,
		IOBytes:      4096,
		SpanBytes:    sim.GiB,
		TotalBytes:   4 * sim.MiB,
		ZipfTheta:    0.99,
		ZipfBuckets:  64,
		Seed:         42,
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, pat := range []Pattern{Sequential, Random, Zipfian} {
		g1, _ := NewGenerator(baseSpec(pat, 0.5))
		g2, _ := NewGenerator(baseSpec(pat, 0.5))
		for {
			a, ok1 := g1.Next()
			b, ok2 := g2.Next()
			if ok1 != ok2 {
				t.Fatalf("%v: generators diverged in length", pat)
			}
			if !ok1 {
				break
			}
			if a != b {
				t.Fatalf("%v: generators diverged: %+v vs %+v", pat, a, b)
			}
		}
	}
}

func TestGeneratorBoundsProperty(t *testing.T) {
	f := func(seed uint64, patRaw, frac uint8) bool {
		spec := baseSpec(Pattern(patRaw%3), float64(frac%101)/100)
		spec.Seed = seed
		g, err := NewGenerator(spec)
		if err != nil {
			return false
		}
		var total int64
		for {
			op, ok := g.Next()
			if !ok {
				break
			}
			total += op.N
			if op.Addr%uint64(spec.IOBytes) != 0 {
				return false
			}
			if op.Addr+uint64(op.N) > uint64(spec.SpanBytes) {
				return false
			}
		}
		return total == spec.TotalBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadFractionConverges(t *testing.T) {
	spec := baseSpec(Random, 0.7)
	spec.TotalBytes = 32 * sim.MiB
	g, _ := NewGenerator(spec)
	reads, total := 0, 0
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		total++
		if op.Read {
			reads++
		}
	}
	got := float64(reads) / float64(total)
	if math.Abs(got-0.7) > 0.03 {
		t.Fatalf("read fraction = %.3f, want ~0.7", got)
	}
}

func TestZipfianIsSkewed(t *testing.T) {
	spec := baseSpec(Zipfian, 0)
	spec.TotalBytes = 32 * sim.MiB
	g, _ := NewGenerator(spec)
	bucketBytes := spec.SpanBytes / int64(spec.ZipfBuckets)
	counts := make([]int, spec.ZipfBuckets)
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		counts[int(op.Addr/uint64(bucketBytes))]++
	}
	// The hottest bucket must dominate a cold one decisively.
	if counts[0] < 5*counts[spec.ZipfBuckets/2] {
		t.Fatalf("zipfian not skewed: hot=%d mid=%d", counts[0], counts[spec.ZipfBuckets/2])
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{IOBytes: 100, SpanBytes: sim.GiB, TotalBytes: sim.MiB},                                  // misaligned
		{IOBytes: 4096, SpanBytes: 1024, TotalBytes: sim.MiB},                                    // tiny span
		{IOBytes: 4096, SpanBytes: sim.GiB, TotalBytes: 512},                                     // tiny total
		{IOBytes: 4096, SpanBytes: sim.GiB, TotalBytes: sim.MiB, ReadFraction: 1.5},              // bad frac
		{IOBytes: 4096, SpanBytes: sim.GiB, TotalBytes: sim.MiB, Pattern: Zipfian, ZipfTheta: 2}, // bad zipf
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
}

// onRig builds a full URAM system and runs fn on it right after bring-up,
// in the same process.
func onRig(t *testing.T, fn func(p *sim.Proc, c *streamer.Client)) {
	t.Helper()
	pl := tapasco.NewPlatform(sim.NewKernel(), tapasco.DefaultU280())
	defer pl.K.Close()
	dev := pl.AddSSD(nvme.DefaultConfig("ssd0", 0x10_0000_0000))
	st := pl.AddStreamer(streamer.DefaultConfig("snacc0", 0, streamer.URAM))
	pl.Bind(dev, st)
	pl.K.Spawn("main", func(p *sim.Proc) {
		if err := pl.Init(p); err != nil {
			t.Errorf("%v", err)
			return
		}
		fn(p, streamer.NewClient(st))
	})
	pl.K.Run(0)
}

// runOn builds a full system and executes the workload on it.
func runOn(t *testing.T, spec Spec) Result {
	t.Helper()
	var res Result
	var err error
	onRig(t, func(p *sim.Proc, c *streamer.Client) { res, err = Run(p, c, spec) })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestRunMixedWorkload(t *testing.T) {
	spec := baseSpec(Random, 0.5)
	spec.TotalBytes = 8 * sim.MiB
	res := runOn(t, spec)
	if res.BytesRead+res.BytesWritten != spec.TotalBytes {
		t.Fatalf("moved %d of %d bytes", res.BytesRead+res.BytesWritten, spec.TotalBytes)
	}
	if res.Reads == 0 || res.Writes == 0 {
		t.Fatalf("mix degenerate: %d reads, %d writes", res.Reads, res.Writes)
	}
	if res.GBps() <= 0 || res.IOPS() <= 0 {
		t.Fatal("throughput not measured")
	}
}

func TestRunSequentialFasterThanRandom(t *testing.T) {
	// §5.2's central contrast, via the workload harness: large sequential
	// reads fly, 4 KiB random reads collapse under in-order retirement.
	seq := baseSpec(Sequential, 1)
	seq.IOBytes = sim.MiB
	seq.TotalBytes = 64 * sim.MiB
	rnd := baseSpec(Random, 1)
	rnd.TotalBytes = 16 * sim.MiB
	s := runOn(t, seq)
	r := runOn(t, rnd)
	if s.GBps() < 3*r.GBps() {
		t.Fatalf("1 MiB sequential reads (%.2f) should beat 4 KiB random (%.2f) decisively",
			s.GBps(), r.GBps())
	}
}

func TestRunZipfianReads(t *testing.T) {
	spec := baseSpec(Zipfian, 1)
	spec.TotalBytes = 8 * sim.MiB
	res := runOn(t, spec)
	if res.Writes != 0 || res.BytesRead != spec.TotalBytes {
		t.Fatalf("pure-read zipfian mis-ran: %+v", res)
	}
}
