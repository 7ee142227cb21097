package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"snacc"
	"snacc/internal/casestudy"
)

// benchmarkSpec is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tiny(seed uint64) params { return params{seed: seed, tiny: true} }

// sameMetrics fails unless got reports exactly the metrics the spec names,
// with the spec's units.
func sameMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, g, ok, m.Unit)
		}
	}
	if len(got) != len(want) {
		var extra []string
		for k := range got {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		t.Errorf("reported %d metrics, spec names %d: %v vs %v", len(got), len(want), extra, names)
	}
}

// Each workload runs end to end at a tiny size, passes its checks with no
// failed op, reproduces its digest, and reports the spec's metrics.
func TestWorkloadsTiny(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := lookup(sw.Name)
		if !ok {
			t.Fatalf("spec workload %q unknown to the program", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := endToEnd(w, tiny(3), 0, runRound, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("result %+v", res)
			}
			sameMetrics(t, res.Metrics, spec.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}

			plain, err := runRound(w, tiny(3))
			if err != nil {
				t.Fatal(err)
			}
			tp := tiny(3)
			tp.trace = true
			traced, err := runRound(w, tp)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Outcome.Digest != traced.Outcome.Digest {
				t.Errorf("traced digest %s != untraced %s", traced.Outcome.Digest, plain.Outcome.Digest)
			}
			if w.name != "casestudy" && (traced.Outcome.Opened == 0 || traced.Outcome.Opened != traced.Outcome.Closed) {
				t.Errorf("spans opened %d closed %d", traced.Outcome.Opened, traced.Outcome.Closed)
			}
			other, err := runRound(w, tiny(4))
			if err != nil {
				t.Fatal(err)
			}
			if w.name != "casestudy" && other.Outcome.Digest == plain.Outcome.Digest {
				t.Errorf("seeds 3 and 4 gave the same digest %s", plain.Outcome.Digest)
			}
		})
	}
}

// The per-layer pass reports exactly the spec's per-layer metrics.
func TestPerLayerMetrics(t *testing.T) {
	spec := loadSpec(t)
	w, _ := lookup("serve-4k")
	res, err := perLayer(w, tiny(1), 0, runRound, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("result %+v", res)
	}
	sameMetrics(t, res.Metrics, spec.PerLayer)
	for _, name := range []string{"sim.event_ns", "pcie.mrd1m_allocs", "serve.capsule_ns",
		"sim.events_per_op", "nvme.cmds_per_op", "serve.peak_conns", "stage.cqe_p50_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// The correctness checks are live: a corrupted readback byte and forged
// accounting each fail the run.
func TestChecksFailTheRun(t *testing.T) {
	cases := []struct {
		workload, want string
		tamper         func(any)
	}{
		{"cluster-rw", "readback", func(v any) {
			if b, ok := v.(*[]byte); ok {
				(*b)[len(*b)/2] ^= 1
			}
		}},
		{"serve-4k", "completed", func(v any) {
			if r, ok := v.(*snacc.ServeReport); ok {
				r.Completed++
			}
		}},
		{"serve-4k", "failed", func(v any) {
			if r, ok := v.(*snacc.ServeReport); ok {
				r.Failed++
			}
		}},
		{"casestudy", "persisted", func(v any) {
			if r, ok := v.(*casestudy.Result); ok {
				r.Bytes += 512
			}
		}},
		{"casestudy", "frames dropped", func(v any) {
			if r, ok := v.(*casestudy.Result); ok {
				r.FramesDropped++
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.workload+"/"+c.want, func(t *testing.T) {
			w, _ := lookup(c.workload)
			p := tiny(1)
			p.tamper = c.tamper
			res, err := endToEnd(w, p, 0, runRound, io.Discard)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, c.want)
			}
			if res.Correct {
				t.Fatal("run reported correct")
			}
		})
	}
}

// A digest that changes between rounds on the same inputs fails the run.
func TestDigestMismatchFailsTheRun(t *testing.T) {
	w, _ := lookup("serve-4k")
	rounds := 0
	_, err := measure(w, tiny(1), time.Hour, func(w workload, p params) (roundReport, error) {
		if rounds++; rounds > 2 {
			return roundReport{}, errors.New("measure kept going past a digest mismatch")
		}
		rep, err := runRound(w, p)
		if rounds == 2 {
			rep.Outcome.Digest += "x"
		}
		return rep, err
	})
	if err == nil || !strings.Contains(err.Error(), "sim_digest") {
		t.Fatalf("err = %v, want a sim_digest mismatch", err)
	}
}

//go:noinline
func spin(until time.Time) int {
	n := 0
	for time.Now().Before(until) {
		n++
	}
	return n
}

// The profile decoder attributes samples: a busy loop in this package is
// "other".
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	a := attribution{}
	if err := a.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if a.total() == 0 || a.share("other") < 0.5 {
		t.Fatalf("attribution %v", a)
	}
}

func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "casestudy", "--trace", "2"},
		{"--workload", "casestudy", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
