// Command simcost measures the simulator's own host cost — CPU,
// allocations and memory per simulated operation — on three workloads
// driven through the public entry points, checks their outputs, and prints
// one JSON result line. See README.md for the workloads and the metric to
// layer map.
//
//	go run . --workload casestudy --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simcost", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: casestudy, serve-4k or cluster-rw")
	seed := fs.Uint64("seed", 1, "workload seed: casestudy content, serve generator, cluster addresses and data")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics (probes, counts, traced run)")
	child := fs.Bool("round", false, "internal: run one round in this process and print its report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "simcost: need --workload casestudy|serve-4k|cluster-rw, --seconds > 0, --trace 0|1\n")
		return 2
	}
	p := params{seed: *seed, trace: *trace == 1}
	if *child {
		return roundMain(w, p)
	}
	prov, _ := json.Marshal(map[string]any{
		"workload": w.name, "seed": *seed, "trace": *trace, "cpus": runtime.NumCPU(),
		"gomaxprocs": roundProcs, "go": runtime.Version(),
	})
	fmt.Fprintf(stdout, "provenance: %s\n", prov)

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 0 {
		res, err = endToEnd(w, p, budget, childRound, stdout)
	} else {
		res, err = perLayer(w, p, budget, childRound, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "simcost: %v\n", err)
		res.Correct = false
		res.Attempted = max(res.Attempted, 1)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// roundFunc runs one round: childRound, or runRound in the self-test.
type roundFunc func(workload, params) (roundReport, error)

// phase is the rounds of one run, each on a newly built system.
type phase struct {
	rounds      []roundReport
	ops, failed int64
}

// measure runs rounds until budget is spent (at least one). Every round
// has the same inputs, so every round must reproduce the first one's
// sim_digest.
func measure(w workload, p params, budget time.Duration, do roundFunc) (*phase, error) {
	ph := &phase{}
	deadline := time.Now().Add(budget)
	for len(ph.rounds) == 0 || time.Now().Before(deadline) {
		rep, err := do(w, p)
		ph.ops += rep.Outcome.Ops
		ph.failed += rep.Outcome.Failed
		if err != nil {
			return ph, err
		}
		if len(ph.rounds) > 0 && rep.Outcome.Digest != ph.rounds[0].Outcome.Digest {
			return ph, fmt.Errorf("%s: round %d sim_digest %s differs from round 0's %s on the same inputs",
				w.name, len(ph.rounds), rep.Outcome.Digest, ph.rounds[0].Outcome.Digest)
		}
		ph.rounds = append(ph.rounds, rep)
	}
	return ph, nil
}

func (ph *phase) first() outcome { return ph.rounds[0].Outcome }

// med is the median over rounds of one per-round figure.
func (ph *phase) med(f func(r *roundReport) float64) float64 {
	xs := make([]float64, len(ph.rounds))
	for i := range ph.rounds {
		xs[i] = f(&ph.rounds[i])
	}
	return median(xs)
}

func (ph *phase) report(stdout io.Writer, label string) {
	fmt.Fprintf(stdout, "%s: %d rounds, %d ops, sim_digest %s\nmodeled: %s\n",
		label, len(ph.rounds), ph.ops, ph.first().Digest, ph.first().Modeled)
}

func endToEnd(w workload, p params, budget time.Duration, do roundFunc, stdout io.Writer) (result, error) {
	res := result{Metrics: map[string]metric{}}
	ph, err := measure(w, p, budget, do)
	res.Attempted, res.Failed = ph.ops, ph.failed
	if err != nil {
		return res, err
	}
	res.Correct = ph.failed == 0
	ph.report(stdout, "untraced")
	var setups []float64
	for _, r := range ph.rounds {
		setups = append(setups, r.SetupS...)
	}
	res.Metrics["cpu_us_per_op"] = metric{ph.med(func(r *roundReport) float64 { return r.CPUUs }), "us"}
	res.Metrics["wall_us_per_op"] = metric{ph.med(func(r *roundReport) float64 { return r.WallUs }), "us"}
	res.Metrics["allocs_per_op"] = metric{ph.med(func(r *roundReport) float64 { return r.Allocs }), "count"}
	res.Metrics["alloc_kb_per_op"] = metric{ph.med(func(r *roundReport) float64 { return r.AllocKB }), "KiB"}
	res.Metrics["max_rss_mb"] = metric{ph.med(func(r *roundReport) float64 { return r.RSSMiB }), "MiB"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	return res, nil
}

// countMetrics are the workload counts, with their units. A workload whose
// entry point does not expose a count reports 0 for it (README.md lists
// which).
var countMetrics = []struct{ name, unit string }{
	{"sim.events_per_op", "count"},
	{"nvme.cmds_per_op", "count"},
	{"nvme.doorbells_per_op", "count"},
	{"pcie.card_rx_kb_per_op", "KiB"},
	{"pcie.ssd_rx_kb_per_op", "KiB"},
	{"pcie.host_rx_kb_per_op", "KiB"},
	{"ethernet.pauses_per_kop", "count"},
	{"serve.peak_dispatch", "count"},
	{"serve.peak_conns", "count"},
	{"serve.conn_state_mib", "MiB"},
	{"cluster.rerep_mib", "MiB"},
	{"cluster.failovers", "count"},
	{"cluster.degraded_ms", "sim_ms"},
}

// perLayer runs the layer probes, then an untraced phase for the workload
// counts and a traced, profiled phase for the CPU attribution and stage
// latencies, each phase taking half the budget.
func perLayer(w workload, p params, budget time.Duration, do roundFunc, stdout io.Writer) (result, error) {
	res := result{Metrics: map[string]metric{}}
	for _, pr := range probes {
		r, err := runProbe(pr)
		if err != nil {
			return res, err
		}
		res.Metrics[pr.name+"_ns"] = metric{r.ns, "ns"}
		res.Metrics[pr.name+"_allocs"] = metric{r.allocs, "count"}
	}

	up, tp := p, p
	up.trace, tp.trace = false, true
	plain, err := measure(w, up, budget/2, do)
	res.Attempted, res.Failed = plain.ops, plain.failed
	if err != nil {
		return res, err
	}
	traced, err := measure(w, tp, budget/2, do)
	res.Attempted += traced.ops
	res.Failed += traced.failed
	if err != nil {
		return res, err
	}
	if plain.first().Digest != traced.first().Digest {
		return res, fmt.Errorf("%s: traced sim_digest %s differs from untraced %s",
			w.name, traced.first().Digest, plain.first().Digest)
	}
	res.Correct = res.Failed == 0
	plain.report(stdout, "untraced")
	traced.report(stdout, "traced")

	for _, c := range countMetrics {
		res.Metrics[c.name] = metric{plain.first().Counts[c.name], c.unit}
	}
	cpuUs := plain.med(func(r *roundReport) float64 { return r.CPUUs })
	perEvent := 0.0
	if ev := plain.first().Counts["sim.events_per_op"]; ev > 0 {
		perEvent = cpuUs * 1e3 / ev
	}
	res.Metrics["sim.cpu_ns_per_event"] = metric{perEvent, "ns"}
	var gcCycles uint64
	var gcCPU, allCPU float64
	for _, r := range plain.rounds {
		gcCycles += r.GCCycles
		gcCPU += r.GCCPU
		allCPU += r.TotalCPU
	}
	res.Metrics["runtime.gc_cycles_per_kop"] = metric{float64(gcCycles) * 1000 / float64(plain.ops), "count"}
	res.Metrics["runtime.gc_cpu_frac"] = metric{gcCPU / allCPU, "ratio"}

	samples := attribution{}
	for _, r := range traced.rounds {
		for m, n := range r.Samples {
			samples[m] += n
		}
	}
	named := 0.0
	for _, m := range modules {
		s := samples.share(m)
		res.Metrics[m+".cpu_share"] = metric{s, "ratio"}
		if m != "other" {
			named += s
		}
	}
	res.Metrics["trace.coverage"] = metric{named, "ratio"}
	res.Metrics["trace.profile_samples"] = metric{float64(samples.total()), "count"}
	res.Metrics["trace.overhead"] = metric{traced.med(func(r *roundReport) float64 { return r.CPUUs }) / cpuUs, "ratio"}
	for _, s := range stageNames() {
		res.Metrics[s] = metric{traced.first().Stages[s], "sim_us"}
	}
	return res, nil
}
