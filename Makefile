# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench benchmark bench-infer bench-cep bench-json bench-check cover experiments experiments-full tools clean

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

# Subscription-engine quality and dispatch cost: the cep experiment
# (detector P/R/F1 vs reader dropout) plus the Go dispatch benchmarks.
# The end-to-end dispatch cost is the benchmark's cep.dispatch_s_per_mevent.
bench-cep:
	go run ./cmd/spirebench -quick -expt cep
	go test -run '^$$' -bench 'BenchmarkCEPDispatch' -benchmem ./internal/cep/

# Quick-scale experiment tables plus a machine-readable snapshot, for
# tracking the reproduction across revisions.
bench-json:
	go run ./cmd/spirebench -quick -expt all -json BENCH_$$(date +%Y%m%d_%H%M%S).json

# Rerun the quick-scale experiments and require every untimed cell to
# equal the committed baseline bit for bit; timed (wall-clock) columns
# print but never gate. This is what the CI reproduction job runs.
bench-check:
	go run ./cmd/spirebench -quick -expt all -json BENCH_check.json
	go run ./cmd/spirebenchdiff -baseline BENCH_pr34.json -current BENCH_check.json

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
