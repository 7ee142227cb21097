GO ?= go

.PHONY: build test race vet bench bench-smoke bench-check cover latency faults crash queues perfreport tenants cluster serve

build:
	$(GO) build ./...

# The default test path vets first and includes the targeted race pass, so
# `make test` alone gives the full tier-1 signal. simcost/ is its own module,
# so `go test ./...` never compiles it; testing it here keeps an API change
# from silently breaking the benchmark.
test: vet
	$(GO) test ./...
	cd simcost && $(GO) test ./...
	$(MAKE) race
	$(MAKE) bench-smoke

# Race-checks the experiment engine's rig-level worker pool, the
# kernel/buffer-pool hot paths, the pooled PCIe and DRAM callback records,
# the fault-injection/recovery machinery (including the controller
# crash-recovery ladder and its multi-queue/ring-wrap variants), the
# cluster, and the facade's error paths, process panics and Close.
race:
	$(GO) test -race ./internal/parallel/... ./internal/sim/... ./internal/bufpool/... ./internal/pcie/ ./internal/memmodel/ ./internal/fault/... ./internal/obs/... ./internal/ethernet/... ./internal/serve/... ./internal/workload/...
	$(GO) test -race -run 'Fault|Retry|Timeout|CQE|Crash|Breaker|Death|CFS|Degraded|Span|Wrap|MultiQueue|Tenant' ./internal/streamer/
	$(GO) test -race -run 'TestParallelDeterminism' ./internal/bench/
	$(GO) test -race ./internal/cluster/
	$(GO) test -race -run 'TestClusterRandomizedDataIntegrity|TestHandleRejectsWithoutPanic|TestTenantFacadeGuards|Close|ProcPanic' .

# Fails on any file gofmt would rewrite, listing them, and on any non-test
# file outside internal/tapasco and simcost/ that drives the host driver by
# hand instead of bringing the platform up with tapasco's Init or Boot.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	@direct=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
		'(NewDriver|InitController|AttachStreamer)\(' . | grep -v -e '^\./internal/tapasco/' -e '^\./simcost/'); \
	if [ -n "$$direct" ]; then \
		echo "bring-up outside internal/tapasco (use Platform.Init or Boot):"; echo "$$direct"; exit 1; fi

# Per-package statement coverage, with a ratchet on the packages whose test
# suites this repo leans on hardest: the span tracer, the trace parser, the
# experiment engine and the tapasco bring-up and reset driver, among others.
# Raise a floor when its package's coverage rises; never lower one to make a
# change fit.
cover:
	$(GO) test -cover ./... > cover.txt || { cat cover.txt; rm -f cover.txt; exit 1; }
	@cat cover.txt
	@awk '{ pct = $$5; sub(/%/, "", pct) } \
		$$2 == "snacc/internal/obs"      && pct + 0 < 88 { bad = bad "  " $$2 ": " pct "% < 88%\n" } \
		$$2 == "snacc/internal/sim"      && pct + 0 < 90 { bad = bad "  " $$2 ": " pct "% < 90%\n" } \
		$$2 == "snacc/internal/workload" && pct + 0 < 88 { bad = bad "  " $$2 ": " pct "% < 88%\n" } \
		$$2 == "snacc/internal/serve"    && pct + 0 < 85 { bad = bad "  " $$2 ": " pct "% < 85%\n" } \
		$$2 == "snacc/internal/bench"    && pct + 0 < 86 { bad = bad "  " $$2 ": " pct "% < 86%\n" } \
		$$2 == "snacc/internal/streamer" && pct + 0 < 88 { bad = bad "  " $$2 ": " pct "% < 88%\n" } \
		$$2 == "snacc/internal/cluster"  && pct + 0 < 85 { bad = bad "  " $$2 ": " pct "% < 85%\n" } \
		$$2 == "snacc/internal/tapasco"  && pct + 0 < 82 { bad = bad "  " $$2 ": " pct "% < 82%\n" } \
		END { if (bad != "") { printf "coverage ratchet failed:\n%s", bad; exit 1 } }' cover.txt
	@rm -f cover.txt

# Per-stage latency percentiles from span tracing -> BENCH_latency.json
latency:
	$(GO) run ./cmd/snaccbench -latency

# Microbenchmarks: kernel scheduling (events/sec, allocs/op), a 1 MiB PCIe
# non-posted read, a 4 KiB DRAM access, and end-to-end streamer reads (4 KiB
# and 1 MiB).
bench:
	$(GO) test -run XXX -bench BenchmarkKernel -benchmem ./internal/sim/
	$(GO) test -run XXX -bench BenchmarkPortRead1M -benchmem ./internal/pcie/
	$(GO) test -run XXX -bench BenchmarkDRAMAccess -benchmem ./internal/memmodel/
	$(GO) test -run XXX -bench BenchmarkStreamerRead -benchmem ./internal/bench/

# One-iteration pass over the kernel micro-benchmarks under the race
# detector: catches bit-rot on the kernel hot paths without the cost of a
# real measurement run. Wired into `make test`.
bench-smoke: vet
	$(GO) test -race -run XXX -bench 'BenchmarkKernel' -benchtime 1x -benchmem ./internal/sim/

# Regenerates the deterministic BENCH files with one snaccbench build in a
# temporary directory and compares each byte for byte with the committed
# copy; a refactor that moves any modeled number fails here. `make test`
# leaves it out: it rebuilds and reruns six sweeps.
bench-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/snaccbench" ./cmd/snaccbench && \
	for run in "crash -crash" "latency -latency" "queues -queues 1,2,4,8" \
		"tenants -tenants" "serve -serve" "cluster -cluster"; do \
		set -- $$run; name=$$1; shift; \
		echo "snaccbench $$*"; \
		(cd "$$tmp" && ./snaccbench "$$@" > /dev/null) || exit 1; \
		cmp "$$tmp/BENCH_$$name.json" "BENCH_$$name.json" || exit 1; \
	done; echo "bench-check: every BENCH file matches"

# Fault-injection suite: recovery unit tests, accounting invariants, and the
# goodput-vs-error-rate sweep.
faults:
	$(GO) test -run 'Fault|Retry|Timeout|CQE|InvalidCompletion' ./internal/fault/ ./internal/streamer/ ./internal/bench/ .
	$(GO) run ./cmd/snaccbench -faults

# Controller-crash suite: recovery-ladder unit tests (breaker, reset,
# replay, degraded striping, crash data integrity) and the goodput/MTTR
# sweep -> BENCH_crash.json
crash:
	$(GO) test -run 'Crash|Breaker|Death|CFS|Degraded|Removal' ./internal/nvme/ ./internal/streamer/ ./internal/bench/ .
	$(GO) run ./cmd/snaccbench -crash

# Multi-queue submission suite: ring-wrap and crash/integrity tests at
# IOQueues > 1, then the IOPS-vs-queues×batch sweep -> BENCH_queues.json
queues:
	$(GO) test -run 'Wrap|MultiQueue|RandomizedDataIntegrity' ./internal/streamer/ .
	$(GO) run ./cmd/snaccbench -queues 1,2,4,8

# Multi-tenant QoS suite: hub scheduling/isolation unit tests plus the
# noisy-neighbor sweep (victim vs aggressor, DRR vs FIFO) -> BENCH_tenants.json
tenants:
	$(GO) test -run 'Tenant' ./internal/streamer/ ./internal/bench/ .
	$(GO) run ./cmd/snaccbench -tenants

# Serving-tier suite: frame-codec/conn-table/backpressure unit tests (the
# invariant test also runs under -race via the race target), the open-loop
# workload generator, and the client-population sweep -> BENCH_serve.json
serve:
	$(GO) test ./internal/serve/ ./internal/workload/
	$(GO) test -run 'TestServe' ./internal/bench/ .
	$(GO) run ./cmd/snaccbench -serve

# Replicated-cluster suite: failover/re-replication/rejoin unit tests, the
# kill-a-node data-integrity property, and the nodes×R×quorum sweep plus
# availability timeline -> BENCH_cluster.json
cluster:
	$(GO) test ./internal/cluster/
	$(GO) test -run 'TestClusterRandomizedDataIntegrity' .
	$(GO) run ./cmd/snaccbench -cluster

# Serial-vs-parallel suite wall time + kernel throughput -> BENCH_parallel.json
perfreport:
	$(GO) run ./cmd/snaccbench -perfreport
