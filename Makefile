# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench benchmark bench-infer bench-ingest bench-cep bench-json bench-check cover experiments experiments-full tools clean

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Go benchmarks only (-run '^$$' skips the unit tests, which `make test`
# already covers).
bench:
	go test -run '^$$' -bench=. -benchmem ./...

# The end-to-end benchmark BENCHMARK.json declares: four replayed
# workloads, one process each; see benchmark/README.md.
benchmark:
	go run ./benchmark -workload all

# Inference sweep benchmarks: full re-sweep (cache off) and cached steady
# state, with allocation counts.
bench-infer:
	go test -run '^$$' -bench 'InferComponents' -benchmem ./internal/inference/

# Ingest front-half throughput: the bench-ingest experiment (readings/s
# vs tag population through the one ingest path) plus the per-stage Go
# benchmarks. CI runs this in the bench-regression job and uploads
# BENCH_ingest.json; the committed baseline gates the rows via
# spirebenchdiff (as part of bench-check's -expt all run).
bench-ingest:
	go run ./cmd/spirebench -quick -expt bench-ingest -json BENCH_ingest.json
	go test -run '^$$' -bench 'BenchmarkIngest' -benchmem ./internal/stream/ ./internal/dedup/ ./internal/graph/

# Subscription-engine quality and dispatch cost: the cep experiment
# (detector P/R/F1 vs reader dropout) and cep-perf (s/Mevent idle and at
# 1k/10k subscriptions), plus the Go dispatch benchmarks. spirebenchdiff
# gates the idle and 10k dispatch keys via bench-check's -expt all run.
bench-cep:
	go run ./cmd/spirebench -quick -expt cep,cep-perf
	go test -run '^$$' -bench 'BenchmarkCEPDispatch' -benchmem ./internal/cep/

# Quick-scale experiment tables plus a machine-readable snapshot, for
# tracking headline metrics across revisions.
bench-json:
	go run ./cmd/spirebench -quick -expt all -json BENCH_$$(date +%Y%m%d_%H%M%S).json

# Rerun the quick-scale experiments and gate against the committed
# baseline: fails when a Table III timing regresses more than 20%.
# This is what the CI bench-regression job runs.
bench-check:
	go run ./cmd/spirebench -quick -expt all -json BENCH_check.json
	go run ./cmd/spirebenchdiff -baseline BENCH_pr20.json -current BENCH_check.json -max-regression 0.20

cover:
	go test -cover ./internal/...

# Quick-scale experiment tables via the CLI (minutes).
experiments:
	go run ./cmd/spirebench -quick -expt all

# Paper-scale experiment tables (multi-hour traces; expect ~1 h total).
experiments-full:
	go run ./cmd/spirebench -expt all

tools:
	go build -o bin/spire ./cmd/spire
	go build -o bin/spiresim ./cmd/spiresim
	go build -o bin/spirebench ./cmd/spirebench
	go build -o bin/spirebenchdiff ./cmd/spirebenchdiff
	go build -o bin/spirequery ./cmd/spirequery
	go build -o bin/spiredecompress ./cmd/spiredecompress
	go build -o bin/spirefed ./cmd/spirefed
	go build -o bin/spirezone ./cmd/spirezone

clean:
	rm -rf bin
