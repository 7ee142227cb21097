package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
)

// roundReport is one round's measurement. Each round runs in a process of
// its own: the simulator parks its daemon processes' goroutines forever
// when a run drains, so a dropped system is never collected (a cluster-rw
// round keeps about 190 MiB), and rounds sharing a process would each pay
// for the heaps of the ones before.
type roundReport struct {
	Outcome outcome
	SetupS  []float64 // wall seconds per build
	// Host cost of the measured phase, per op.
	CPUUs, WallUs, Allocs, AllocKB float64
	GCCycles                       uint64
	GCCPU, TotalCPU                float64 // runtime/metrics CPU seconds
	RSSMiB                         float64 // peak resident set once the round has run
	Samples                        attribution
	Err                            string
}

// setupsPerRound is the set-up samples a round takes. The first build is
// the one the round drives, made cold in a fresh process; the others are
// made after the round, so their systems do not count toward its memory.
const setupsPerRound = 5

// roundProcs is the GOMAXPROCS a round runs with. The simulator hands
// control between simulated processes, one goroutine at a time, over
// channels. With a second P the Go scheduler spins an idle thread on every
// hand-off, which adds 30-40% CPU that swings by ±15% from run to run on a
// shared 2-CPU host and would drown code changes. One P also serialises
// cluster-rw's two kernel workers, whose barrier cost still shows.
const roundProcs = 1

// runRound builds and runs one round in this process. A traced round also
// takes a CPU profile of the measured phase and attributes it by module.
func runRound(w workload, p params) (roundReport, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(roundProcs))
	var rep roundReport
	build := func() (round, error) {
		runtime.GC()
		s := take()
		r, err := w.build(p)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		rep.SetupS = append(rep.SetupS, since(s).wall.Seconds())
		return r, nil
	}
	r, err := build()
	if err != nil {
		return rep, err
	}
	runtime.GC()
	var prof bytes.Buffer
	if p.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rep, err
		}
	}
	s := take()
	out, err := r()
	c := since(s)
	if p.trace {
		pprof.StopCPUProfile()
		rep.Samples = attribution{}
		if perr := rep.Samples.add(prof.Bytes()); perr != nil && err == nil {
			err = perr
		}
	}
	rep.RSSMiB = maxRSSMiB()
	if err != nil {
		return rep, err
	}
	if out.Opened != out.Closed {
		return rep, fmt.Errorf("%s: %d spans opened, %d closed", w.name, out.Opened, out.Closed)
	}
	ops := float64(out.Ops)
	rep.Outcome = out
	rep.CPUUs = float64(c.cpu.Nanoseconds()) / 1e3 / ops
	rep.WallUs = float64(c.wall.Nanoseconds()) / 1e3 / ops
	rep.Allocs = float64(c.mallocs) / ops
	rep.AllocKB = float64(c.bytes) / 1024 / ops
	rep.GCCycles, rep.GCCPU, rep.TotalCPU = c.gcCycles, c.gcCPU, c.totalCPU
	for len(rep.SetupS) < setupsPerRound {
		if _, err := build(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// childRound runs one round in a child process (this binary, with
// --round) and waits for it to exit.
func childRound(w workload, p params) (roundReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return roundReport{}, err
	}
	trace := "0"
	if p.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "--round", "--workload", w.name, "--seed", strconv.FormatUint(p.seed, 10), "--trace", trace)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var rep roundReport
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return rep, fmt.Errorf("%s: round process: %v (%v)", w.name, err, runErr)
	}
	if rep.Err != "" {
		return rep, errors.New(rep.Err)
	}
	return rep, runErr
}

// roundMain is the child's side of childRound.
func roundMain(w workload, p params) int {
	rep, err := runRound(w, p)
	if err != nil {
		rep.Err = err.Error()
	}
	line, _ := json.Marshal(rep)
	fmt.Printf("%s\n", line)
	if err != nil {
		return 1
	}
	return 0
}
