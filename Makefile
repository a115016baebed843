# Convenience targets; everything here is plain `go` — no extra tooling.

.PHONY: all build test race bench

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# One workload of the repo benchmark (BENCHMARK.json, bench/README.md).
bench:
	bash bench/run.sh --workload failover_sweep --seed 1 --seconds 12 --trace 0
