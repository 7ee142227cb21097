package workload

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"snacc/internal/sim"
	"snacc/internal/streamer"
)

func TestParseTraceBasic(t *testing.T) {
	in := `# comment
R 0 4096
W 4096 8192 2.5

r 1M 64K
W 2G 512 0
`
	ops, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceOp{
		{Read: true, Addr: 0, N: 4096},
		{Read: false, Addr: 4096, N: 8192, Gap: sim.Time(2.5 * float64(sim.Microsecond))},
		{Read: true, Addr: 1 << 20, N: 64 << 10},
		{Read: false, Addr: 2 << 30, N: 512},
	}
	if len(ops) != len(want) {
		t.Fatalf("parsed %d ops, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, ops[i], want[i])
		}
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []string{
		"X 0 4096",                  // bad op
		"R 0",                       // too few fields
		"R 0 4096 1 2",              // too many fields
		"R zz 4096",                 // bad offset
		"R 0 4095",                  // misaligned length
		"R 100 4096",                // misaligned offset
		"R 0 0",                     // zero length
		"W 0 4096 -3",               // negative gap
		"W 0 4096 hello",            // non-numeric gap
		"W 0 4096 Inf",              // non-finite gap
		"W 0 4096 NaN",              // non-finite gap
		"R 18014398509481984K 4096", // offset overflows 64 bits
	}
	for _, c := range cases {
		if _, err := ParseTrace(strings.NewReader(c)); err == nil {
			t.Errorf("accepted malformed line %q", c)
		}
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	f := func(raw []struct {
		Read  bool
		Addr  uint16
		Sects uint8
		GapUS uint8
	}) bool {
		var ops []TraceOp
		for _, r := range raw {
			ops = append(ops, TraceOp{
				Read: r.Read,
				Addr: uint64(r.Addr) * 512,
				N:    (int64(r.Sects%64) + 1) * 512,
				Gap:  sim.Time(r.GapUS) * sim.Microsecond,
			})
		}
		var buf bytes.Buffer
		if err := FormatTrace(&buf, ops); err != nil {
			return false
		}
		back, err := ParseTrace(&buf)
		if err != nil {
			return false
		}
		if len(back) != len(ops) {
			return false
		}
		for i := range ops {
			if back[i] != ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRecordTraceMatchesGenerator(t *testing.T) {
	spec := baseSpec(Zipfian, 0.5)
	ops, err := RecordTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := NewGenerator(spec)
	for i := 0; ; i++ {
		op, ok := g.Next()
		if !ok {
			if i != len(ops) {
				t.Fatalf("trace has %d ops, generator yields %d", len(ops), i)
			}
			return
		}
		want := TraceOp{Read: op.Read, Addr: op.Addr, N: op.N}
		if ops[i] != want {
			t.Fatalf("op %d = %+v, want %+v", i, ops[i], want)
		}
	}
}

// replayOn builds a full system and replays the trace on it.
func replayOn(t *testing.T, ops []TraceOp) Result {
	t.Helper()
	var res Result
	var err error
	onRig(t, func(p *sim.Proc, c *streamer.Client) { res, err = Replay(p, c, "trace", ops) })
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return res
}

func TestReplayConservesBytes(t *testing.T) {
	spec := baseSpec(Random, 0.5)
	spec.TotalBytes = 4 * sim.MiB
	ops, err := RecordTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := replayOn(t, ops)
	if res.BytesRead+res.BytesWritten != spec.TotalBytes {
		t.Fatalf("replayed %d of %d bytes", res.BytesRead+res.BytesWritten, spec.TotalBytes)
	}
	if res.Reads+res.Writes != int64(len(ops)) {
		t.Fatalf("replayed %d of %d ops", res.Reads+res.Writes, len(ops))
	}
}

func TestReplayMatchesGeneratedRun(t *testing.T) {
	// Replaying a recorded workload must behave like generating it live:
	// same op mix, same bytes, and closely matching elapsed time.
	spec := baseSpec(Random, 1)
	spec.TotalBytes = 4 * sim.MiB
	ops, _ := RecordTrace(spec)
	rec := replayOn(t, ops)
	live := runOn(t, spec)
	if rec.Reads != live.Reads || rec.BytesRead != live.BytesRead {
		t.Fatalf("replay diverged: %+v vs %+v", rec, live)
	}
	ratio := rec.Elapsed.Seconds() / live.Elapsed.Seconds()
	if ratio < 0.98 || ratio > 1.02 {
		t.Fatalf("replay elapsed %v vs live %v", rec.Elapsed, live.Elapsed)
	}
}

func TestReplayOpenLoopGapsThrottle(t *testing.T) {
	// With large inter-arrival gaps the replay is arrival-limited, not
	// device-limited: elapsed time is dominated by the sum of gaps.
	var ops []TraceOp
	const n = 64
	for i := 0; i < n; i++ {
		ops = append(ops, TraceOp{Read: true, Addr: uint64(i) * 4096, N: 4096,
			Gap: 100 * sim.Microsecond})
	}
	res := replayOn(t, ops)
	minElapsed := sim.Time(n) * 100 * sim.Microsecond
	if res.Elapsed < minElapsed {
		t.Fatalf("elapsed %v under the %v arrival floor", res.Elapsed, minElapsed)
	}
	if res.Elapsed > minElapsed+10*sim.Millisecond {
		t.Fatalf("elapsed %v far above the arrival floor %v", res.Elapsed, minElapsed)
	}
}

func TestReplayRejectsMalformedOp(t *testing.T) {
	onRig(t, func(p *sim.Proc, c *streamer.Client) {
		if _, err := Replay(p, c, "bad", []TraceOp{{Read: true, Addr: 7, N: 4096}}); err == nil {
			t.Error("misaligned trace op accepted")
		}
	})
}
