package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sample is a snapshot of the host-side cost counters. Deltas between two
// samples bracket one measured phase.
type sample struct {
	wall     time.Time
	cpu      time.Duration // user + sys of this process (getrusage)
	mallocs  uint64        // runtime.MemStats.Mallocs
	bytes    uint64        // runtime.MemStats.TotalAlloc
	gcCycles uint64
	gcCPU    float64 // runtime/metrics GC CPU seconds
	allCPU   float64 // runtime/metrics total CPU seconds
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func take() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	s := sample{
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: uint64(ms.NumGC),
		gcCPU:    cpuMetrics[0].Value.Float64(),
		allCPU:   cpuMetrics[1].Value.Float64(),
	}
	s.cpu = processCPU()
	s.wall = time.Now()
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the peak resident set of this process so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cost is the delta between two samples.
type cost struct {
	wall, cpu       time.Duration
	mallocs, bytes  uint64
	gcCycles        uint64
	gcCPU, totalCPU float64
}

func since(a sample) cost {
	b := take()
	return cost{
		wall:     b.wall.Sub(a.wall),
		cpu:      b.cpu - a.cpu,
		mallocs:  b.mallocs - a.mallocs,
		bytes:    b.bytes - a.bytes,
		gcCycles: b.gcCycles - a.gcCycles,
		gcCPU:    b.gcCPU - a.gcCPU,
		totalCPU: b.allCPU - a.allCPU,
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
