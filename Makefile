# Convenience targets; everything here is plain `go` — no extra tooling.

.PHONY: all build test check race bench benchsmoke identity census

all: build test

build:
	go build ./...

test:
	go test ./...

# Tier-1, vet and the format gate, one iteration of every in-tree benchmark,
# and the nested benchmark module, which `go build ./...` and `go test ./...`
# at the root never compile.
check:
	go build ./... && go vet ./... && go test ./... && test -z "$$(gofmt -l .)" && $(MAKE) benchsmoke && (cd bench && go vet . && go test .)

# `go test ./...` compiles benchmarks but never runs them: one iteration each
# keeps a benchmark whose harness rotted from going unnoticed. `./...`, not a
# list: a package that gains its first benchmark is covered without an edit
# here, and one that has none costs a cached link.
benchsmoke:
	go test -run '^$$' -bench . -benchtime 1x ./...

race:
	go test -race ./...

# One workload of the repo benchmark (BENCHMARK.json, bench/README.md).
bench:
	bash bench/run.sh --workload failover_sweep --seed 1 --seconds 12 --trace 0

# Output identity against another revision: every wacksim and wackcheck
# stream of the fixed recipe in scripts/identity.sh, byte for byte (at a
# revision that still has wackload, its availability lines run wackload).
#   make identity BASE=<rev>
identity:
	@test -n "$(BASE)" || { echo "usage: make identity BASE=<rev>" >&2; exit 2; }
	bash scripts/identity.sh $(BASE)

# Exported internal/* names no program calls and Config/Options fields no
# program writes (cmd/census; `go run ./cmd/census -v` lists them). `go test
# ./cmd/census`, part of `make test`, fails on any of them missing from the
# keep-list in cmd/census/main_test.go, and on a stale entry there.
census:
	go run ./cmd/census
