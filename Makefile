# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build test test-short vet doccheck race perfbench-check bench bench-hot bench-scan bench-scan-smoke bench-shuffle bench-serve bench-fleet bench-fleet-smoke bench-ingest bench-ingest-smoke bench-knn bench-knn-smoke bench-dag bench-dag-smoke experiments examples clean

all: check

# The full gate: compile everything, vet, enforce package docs (and the
# README knob reference), run the test suite, re-run the concurrency-heavy
# packages under the race detector, compile and test the benchmark module,
# and smoke the DAG scheduler's cache-reuse win, the compact scan kernels,
# the sharded-fleet serving path, the streaming-ingest path, and the
# kNN-join (both arms, bit-identity checked).
check: build vet doccheck test race perfbench-check bench-dag-smoke bench-scan-smoke bench-fleet-smoke bench-ingest-smoke bench-knn-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail on any package missing a package-level doc comment, or any
# registered Conf* knob missing from README.md's configuration reference.
doccheck:
	$(GO) run ./cmd/doccheck

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The engines are the concurrency-heavy core; keep them race-clean. The
# kernels package rides along for its intra-partition parallel merge path,
# dfs/chaos for the heartbeat + re-replication machinery and its harness,
# serve/model for the query server's batching, shedding, and hot reload,
# fleet for the router's scatter-gather, hedging, and liveness prober.
# ./internal/mapreduce/... recursively covers the dag scheduler package,
# whose concurrent node dispatch is the newest race surface; ingest for the
# WAL-backed store's concurrent writers, query merges, and compaction swap.
race:
	$(GO) test -race ./internal/mapreduce/... ./internal/mapreduce/rpcmr/... ./internal/kernels/... ./internal/points/... ./internal/dfs/... ./internal/chaos/... ./internal/serve/... ./internal/model/... ./internal/fleet/... ./internal/ingest/... ./internal/knnjoin/...

# perfbench/ is a nested module (it replaces repro with ../), so the root
# `go build ./...` never compiles it: an internal API it calls can vanish
# without any other target noticing. Vet and test it with the module
# settings perfbench/run.sh builds it under.
perfbench-check:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off GOWORK=off $(GO) vet ./... && \
		GOFLAGS=-mod=mod GOPROXY=off GOWORK=off $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem .

# Hot-path micro-benchmarks (dense kernels, shuffle sort, group decode)
# with pinned benchtime/count so runs feed straight into benchstat:
#
#	make bench-hot > old.txt ... make bench-hot > new.txt
#	benchstat old.txt new.txt
BENCHTIME ?= 1s
BENCHCOUNT ?= 6
bench-hot:
	$(GO) test -bench 'Rho|Delta|Decode' -run xxx -benchmem \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/kernels/ ./internal/points/
	$(GO) test -bench 'Sort|Shuffle' -run xxx -benchmem \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/mapreduce/

# Compact scan-path micro-benchmarks: f64 vs f32 vs q8 single-query NN,
# multi-query NNBatch, and top-k selection (numbers feed BENCH_PR7.json /
# BENCH_PR10.json alongside the end-to-end sweeps).
bench-scan:
	$(GO) test -bench 'NNScan|NNBatch|TopK' -run '^$$' -benchmem \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/kernels/

# One fast iteration per scan benchmark for the check gate and CI: catches
# a compact kernel that stops compiling or panics on real shapes.
bench-scan-smoke:
	$(GO) test -bench 'NNScan|NNBatch|TopK' -run '^$$' -benchtime 1x ./internal/kernels/

# Shuffle transport comparison: framed-TCP streaming vs framed+flate, at
# 1/16/64MB partitions (numbers recorded in BENCH_PR3.json, which also
# holds the since-removed gob-RPC arm).
bench-shuffle:
	$(GO) test -bench BenchmarkShuffleTransport -run '^$$' -benchmem \
		-benchtime $(BENCHTIME) ./internal/mapreduce/rpcmr/

# Online-serving benchmark: train a model in-process (built directly from
# blob geometry at ≥100k points), then sweep closed-loop client counts over
# the LSH-pruned and exact-scan serving paths at each scan precision
# (numbers recorded in BENCH_PR5.json / BENCH_PR7.json). The queue bound is
# kept below the top client count so the shed path is exercised too.
# Override size and shape per run:
#
#	make bench-serve SERVE_N=1000000 SERVE_DIM=8 SERVE_PRECISIONS=f64,f32,q8
SERVE_N ?= 50000
SERVE_DIM ?= 8
SERVE_PRECISIONS ?= f64,f32,q8
bench-serve:
	$(GO) run ./cmd/serveload -self -n $(SERVE_N) -dim $(SERVE_DIM) -clients 1,8,64 \
		-queue 32 -duration 3s -precisions $(SERVE_PRECISIONS) -json

# Sharded-fleet benchmark: partition one in-process model across shard
# fleets of each size, front them with the LSH-aware router, and drive the
# same closed-loop clients through it. Reports wall QPS, mean fan-out, the
# per-shard request/busy-time breakdown, and node_qps (requests divided by
# the busiest shard's busy seconds — the per-node throughput a deployment
# with one shard per machine would see; on this single box all shards share
# the CPU, so wall QPS alone cannot show the scaling). Numbers are recorded
# in BENCH_PR8.json:
#
#	make bench-fleet FLEET_N=1000000 FLEET_DIM=8
FLEET_N ?= 1000000
FLEET_DIM ?= 8
FLEET_K ?= 16
FLEET_SHARDS ?= 1,2,4
FLEET_CLIENTS ?= 64
FLEET_DURATION ?= 15s
# The queue stays above the client count here, unlike bench-serve: a fleet
# query completes only when every owning shard admits it, so running at the
# shed point charges busy time for scans whose sibling shard shed the
# request — wasted work that poisons the node_qps capacity measurement.
bench-fleet:
	$(GO) run ./cmd/serveload -self -n $(FLEET_N) -dim $(FLEET_DIM) -k $(FLEET_K) \
		-fleet-shards $(FLEET_SHARDS) -clients $(FLEET_CLIENTS) \
		-queue 128 -duration $(FLEET_DURATION) -json

# Small fixed-size variant for the check gate and CI: catches a fleet path
# that stops partitioning, routing, or merging, without the full-scale cost.
bench-fleet-smoke:
	$(GO) run ./cmd/serveload -self -n 20000 -dim 4 -k 8 \
		-fleet-shards 1,2 -clients 8 -duration 1s -json > /dev/null

# Mixed read/write benchmark: the in-process server fronts a streaming
# ingest.Store, and -ingest-frac of each client's requests write instead of
# read, with the background compactor folding the delta into new base
# artifacts as the sweep runs. Reports read and ingest QPS/p99 separately
# plus compactions per window (numbers recorded in BENCH_PR9.json):
#
#	make bench-ingest INGEST_N=1000000 INGEST_DIM=8
INGEST_N ?= 1000000
INGEST_DIM ?= 8
INGEST_K ?= 16
INGEST_FRAC ?= 0.1
INGEST_CLIENTS ?= 64
INGEST_DURATION ?= 15s
bench-ingest:
	$(GO) run ./cmd/serveload -self -n $(INGEST_N) -dim $(INGEST_DIM) -k $(INGEST_K) \
		-ingest-frac $(INGEST_FRAC) -ingest-compact-interval 5s \
		-clients $(INGEST_CLIENTS) -queue 128 -duration $(INGEST_DURATION) -json

# Small fixed-size variant for the check gate and CI: catches an ingest
# path that stops acking, merging, or compacting, without the full cost.
bench-ingest-smoke:
	$(GO) run ./cmd/serveload -self -n 20000 -dim 4 -k 8 \
		-ingest-frac 0.1 -ingest-compact-interval 500ms \
		-clients 8 -duration 1s -json > /dev/null

# kNN-join benchmark: LSH-bucketed join vs the broadcast-naive exact join
# on one generated R/S pair, bit-identity verified between the arms
# (numbers recorded in BENCH_PR10.json):
#
#	make bench-knn KNN_N=100000 KNN_NQ=10000 KNN_DIM=8 KNN_K=10
KNN_N ?= 100000
KNN_NQ ?= 10000
KNN_DIM ?= 8
KNN_K ?= 10
bench-knn:
	$(GO) run ./cmd/knnbench -n $(KNN_N) -nq $(KNN_NQ) -dim $(KNN_DIM) -k $(KNN_K) -json

# Small fixed-size variant for the check gate and CI: runs both join arms
# end to end and fails loudly if they stop agreeing bit for bit.
bench-knn-smoke:
	$(GO) run ./cmd/knnbench -n 3000 -nq 300 -dim 4 -k 5 -json > /dev/null

# DAG scheduler comparison: hand-sequenced-equivalent fresh sessions vs a
# shared cached session, over repeated LSH-DDP + halo runs (wall, job
# count, staged bytes; numbers recorded in BENCH_PR6.json).
DAGBENCH_N ?= 20000
DAGBENCH_RUNS ?= 3
bench-dag:
	$(GO) run ./cmd/dagbench -n $(DAGBENCH_N) -runs $(DAGBENCH_RUNS)

# Small fixed-size variant of bench-dag for the check gate and CI: fails
# loudly if the scheduler or its cache regress into re-executing work.
bench-dag-smoke:
	$(GO) run ./cmd/dagbench -n 3000 -runs 2

# Regenerate every table/figure of the paper (several minutes at full scale).
experiments:
	$(GO) run ./cmd/dpbench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/compare
	$(GO) run ./examples/halo
	$(GO) run ./examples/decisiongraph
	$(GO) run ./examples/accuracy
	$(GO) run ./examples/distributed

clean:
	$(GO) clean ./...
