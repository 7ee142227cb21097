// Command snaccreplay replays a block I/O trace through the simulated
// SNAcc stack and reports throughput and operation rate per Streamer
// variant — the tool a downstream user reaches for to ask "what would my
// application's capture do on this accelerator?".
//
// Trace format (stdin or -trace file): one operation per line,
//
//	R <offset> <length> [gap-µs]
//	W <offset> <length> [gap-µs]
//
// with '#' comments and K/M/G binary suffixes. Without -trace, a synthetic
// workload is generated from the -pattern/-read/-io/-total flags and can be
// exported with -dump for later replay.
//
// Usage:
//
//	snaccreplay -trace capture.txt -variant uram
//	snaccreplay -pattern zipfian -read 0.9 -total 64 -dump capture.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"snacc"
)

func main() {
	tracePath := flag.String("trace", "", "trace file to replay (default: generate synthetically)")
	variant := flag.String("variant", "all", "streamer variant: uram, obdram, hostdram, or all")
	pattern := flag.String("pattern", "random", "synthetic pattern: sequential, random, zipfian")
	readFrac := flag.Float64("read", 0.7, "synthetic read fraction [0,1]")
	ioKiB := flag.Int64("io", 4, "synthetic operation size (KiB)")
	totalMiB := flag.Int64("total", 32, "synthetic total volume (MiB)")
	seed := flag.Uint64("seed", 1, "synthetic generator seed")
	dump := flag.String("dump", "", "write the trace to this file instead of replaying")
	flag.Parse()

	ops, name, err := loadOps(*tracePath, *pattern, *readFrac, *ioKiB, *totalMiB, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := snacc.FormatTrace(f, ops); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d operations to %s\n", len(ops), *dump)
		return
	}

	variants, err := pickVariants(*variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Printf("replaying %q: %d operations\n\n", name, len(ops))
	fmt.Printf("%-16s%12s%14s%12s%12s\n", "variant", "GB/s", "IOPS", "reads", "writes")
	functional := false
	for _, v := range variants {
		sys := snacc.MustNewSystem(snacc.Options{Variant: v, Functional: &functional})
		res, err := sys.ReplayTrace(name, ops)
		sys.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", v, err)
			os.Exit(1)
		}
		fmt.Printf("%-16s%12.2f%14.0f%12d%12d\n", v.String(), res.GBps(), res.IOPS(), res.Reads, res.Writes)
	}
}

func loadOps(path, pattern string, readFrac float64, ioKiB, totalMiB int64, seed uint64) ([]snacc.TraceOp, string, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		ops, err := snacc.ParseTrace(f)
		if err != nil {
			return nil, "", err
		}
		if len(ops) == 0 {
			return nil, "", fmt.Errorf("trace %s holds no operations", path)
		}
		return ops, path, nil
	}
	var pat snacc.WorkloadPattern
	switch pattern {
	case "sequential":
		pat = snacc.SequentialPattern
	case "random":
		pat = snacc.RandomPattern
	case "zipfian":
		pat = snacc.ZipfianPattern
	default:
		return nil, "", fmt.Errorf("unknown pattern %q", pattern)
	}
	spec := snacc.WorkloadSpec{
		Name:         pattern,
		Pattern:      pat,
		ReadFraction: readFrac,
		IOBytes:      ioKiB << 10,
		SpanBytes:    1 << 30,
		TotalBytes:   totalMiB << 20,
		ZipfTheta:    0.99,
		ZipfBuckets:  128,
		Seed:         seed,
	}
	ops, err := snacc.RecordTrace(spec)
	return ops, pattern, err
}

func pickVariants(s string) ([]snacc.Variant, error) {
	switch s {
	case "uram":
		return []snacc.Variant{snacc.URAM}, nil
	case "obdram":
		return []snacc.Variant{snacc.OnboardDRAM}, nil
	case "hostdram":
		return []snacc.Variant{snacc.HostDRAM}, nil
	case "all":
		return []snacc.Variant{snacc.URAM, snacc.OnboardDRAM, snacc.HostDRAM}, nil
	}
	return nil, fmt.Errorf("unknown variant %q", s)
}
