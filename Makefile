# Convenience targets; everything here is plain `go` — no extra tooling.

.PHONY: all build test check race bench

all: build test

build:
	go build ./...

test:
	go test ./...

# Tier-1 plus the nested benchmark module, which `go build ./...` and
# `go test ./...` at the root never compile.
check:
	go build ./... && go test ./... && (cd bench && go vet . && go test .)

race:
	go test -race ./...

# One workload of the repo benchmark (BENCHMARK.json, bench/README.md).
bench:
	bash bench/run.sh --workload failover_sweep --seed 1 --seconds 12 --trace 0
