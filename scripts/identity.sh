#!/usr/bin/env bash
# Output identity against another revision: builds wacksim and wackcheck at
# BASE and at the working tree, runs the same commands with both, and
# compares stdout, stderr, exit code and trace files byte for byte. A BASE
# from before the availability experiment moved into wacksim also has its
# own wackload binary; its side runs each `wacksim -experiment availability`
# line as wackload with that flag pair dropped.
#
#   bash scripts/identity.sh <base-rev>        (or: make identity BASE=<rev>)
#
# A change that only touches speed must pass; one that moves a simulated
# result must say which stream moved and why. BASE is exported with
# `git archive`, so nothing is left behind in .git.
set -euo pipefail
base=${1:?usage: identity.sh <base-rev>}
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/src" "$tmp/base" "$tmp/head"
git archive "$base" | tar -x -C "$tmp/src"
# build <src> <dst>: build whichever of the tools the tree at <src> has.
build() {
	local tool pkgs=()
	for tool in wacksim wackload wackcheck; do
		[ -d "$1/cmd/$tool" ] && pkgs+=("./cmd/$tool")
	done
	(cd "$1" && go build -o "$2/" "${pkgs[@]}")
}
build "$tmp/src" "$tmp/base"
build . "$tmp/head"

fail=0
# run <name> <tool> <args...>: run the tool from both builds; a literal TRACE
# in the arguments is replaced by a per-side trace file that is compared too.
run() {
	local name=$1 tool=$2 side
	shift 2
	for side in base head; do
		local args=("${@//TRACE/$tmp/$side-$name.trace}") code=0 cmd=("$tmp/$side/$tool")
		if [ -x "$tmp/$side/wackload" ] && [ "$tool ${args[*]:0:2}" = "wacksim -experiment availability" ]; then
			cmd=("$tmp/$side/wackload")
			args=("${args[@]:2}")
		fi
		"${cmd[@]}" "${args[@]}" >"$tmp/$side-$name.out" 2>"$tmp/$side-$name.err" || code=$?
		echo "$code" >"$tmp/$side-$name.code"
	done
	same "$name"
}
# same <name> [other]: compare every stream of two recorded runs.
same() {
	local name=$1 a=base-$1 b=head-${2:-$1} ext
	for ext in out err code trace; do
		[ -e "$tmp/$a.$ext" ] || continue
		if ! cmp -s "$tmp/$a.$ext" "$tmp/$b.$ext"; then
			echo "identity: DIFFERENT $name ($a.$ext vs $b.$ext)"
			fail=1
		fi
	done
	echo "identity: checked $name ${2:+vs $2}"
}

run tables wacksim -experiment all -trials 3 -seed 7
run rows wacksim -experiment all -trials 3 -seed 7 -json
run figure5-p1 wacksim -experiment figure5 -sizes 2,4 -trials 2 -seed 7 -json -trace TRACE -parallel 1
run figure5-p4 wacksim -experiment figure5 -sizes 2,4 -trials 2 -seed 7 -json -trace TRACE -parallel 4
same figure5-p1 figure5-p4
run load-nic wacksim -experiment availability -trials 2 -clients 100 -fault nic
run load-crash wacksim -experiment availability -trials 2 -clients 100 -fault crash
run load-rolling wacksim -experiment availability -trials 2 -clients 100 -fault rolling
run load-rolling-minimal wacksim -experiment availability -trials 2 -clients 100 -fault rolling -placement minimal
run load-flap-phi wacksim -experiment availability -trials 2 -clients 100 -fault flap -detector phi -invariants
# Every other -fault preset, so each one the executor plays is compared.
run load-graceful wacksim -experiment availability -trials 2 -clients 100 -fault graceful
run load-graylink wacksim -experiment availability -trials 2 -clients 100 -fault graylink
run load-slownode-phi wacksim -experiment availability -trials 2 -clients 100 -fault slownode -detector phi -invariants
run load-router-crash wacksim -experiment availability -topology router -trials 2 -clients 100 -fault crash
# Open-loop arrivals with the protocol trace and its phase breakdown, the
# registry as it is written (-parallel 1: trials share one registry and float
# sums depend on who adds first; into a compared file, because `-prom -`
# follows the table on stdout, where revisions before the one sweep loop
# put it first) and the forwarding path.
run load-open-trace wacksim -experiment availability -mode open -rps 2000 -clients 100 -trials 2 -fault nic -invariants -json -trace TRACE
# The loaded shape: after the fault thousands of retransmissions fall due
# within a few hundred microseconds, so the event queue runs thousands deep.
run load-open-loaded wacksim -experiment availability -mode open -rps 10000 -clients 1000 -trials 1 -fault nic -invariants -json -trace TRACE
run load-open-crash-prom wacksim -experiment availability -mode open -rps 2000 -clients 100 -trials 2 -fault crash -parallel 1 -prom TRACE
run load-router wacksim -experiment availability -topology router -trials 2 -clients 100 -fault nic
# Requests that exhaust their retries: the detection timeout outlasts the
# retransmission budget, so parked requests end in timeouts, not resets.
run load-open-timeouts wacksim -experiment availability -mode open -rps 2000 -clients 100 -trials 2 -fault nic -detect-timeout 3s -json
run load-closed-timeouts wacksim -experiment availability -mode closed -clients 100 -trials 2 -fault crash -detect-timeout 3s -think 100ms
run check wackcheck -seeds 8 -steps 16
run check-gray-phi wackcheck -seeds 8 -steps 16 -gray -detector phi
# The §4.2 variant: the only recipe line in which an ALLOC message is cast.
run check-representative wackcheck -seeds 8 -steps 16 -representative
# A seeded mutant that seeds 1 and 3 catch: the shrunk schedules are printed,
# so the shrinker's path and budget are compared too. Both sides write their
# artifacts to the one directory the output names.
run check-shrink wackcheck -seeds 4 -steps 16 -mutate keep-on-release:0 -shrink -out "$tmp/shrink"

if [ "$fail" -ne 0 ]; then
	echo "identity: output differs from $base" >&2
	exit 1
fi
echo "identity: every stream identical to $base"
