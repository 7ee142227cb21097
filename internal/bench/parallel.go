package bench

import "snacc/internal/parallel"

// The experiment runners below are embarrassingly parallel: every row of
// every figure and ablation builds its own simulated system around a private
// sim.Kernel with fixed PRNG seeds, so rows can execute on any worker in any
// real-time order without affecting their simulated-time results. The engine
// collects rows by index, which keeps the emitted tables bit-identical to a
// serial run at every parallelism level (the determinism test pins this).
var engine = parallel.New(1)

// SetParallelism selects how many OS worker goroutines the experiment
// runners shard independent simulation rigs across. n <= 0 selects
// runtime.GOMAXPROCS(0). The default is 1 (serial). Not safe to call
// concurrently with a running experiment; set it once up front.
func SetParallelism(n int) { engine = parallel.New(n) }

// Parallelism reports the configured worker count.
func Parallelism() int { return engine.Workers() }

// kernelWorkers is the per-rig domain-level worker count applied to runners
// whose rigs have a partitionable topology (the case-study figures). It
// composes with SetParallelism: the engine shards *across* rigs, and each
// rig's shard runs its domains on up to this many workers. Results are
// identical at any setting (the determinism test sweeps both axes).
var kernelWorkers = 1

// SetKernelWorkers selects the domain-level worker count; n <= 1 keeps
// every rig on its plain serial kernel. Same concurrency caveat as
// SetParallelism.
func SetKernelWorkers(n int) {
	if n < 1 {
		n = 1
	}
	kernelWorkers = n
}

// KernelWorkers reports the configured domain-level worker count.
func KernelWorkers() int { return kernelWorkers }

// mapRows runs job(0..n-1) on the experiment engine and returns the results
// in index order.
func mapRows[T any](n int, job func(i int) T) []T {
	return parallel.Map(engine, n, job)
}
