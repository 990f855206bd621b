#!/bin/sh
# Tier-1 verification: build, vet (examples and commands included via ./...,
# plus the perfbench module, which ./... does not reach), full test suite, then the race-detector pass over the packages with
# lock-sharded concurrent fast paths — proto carries the per-peer channel
# map, central retransmission engine, session negotiation and the
# stage-trace ring, so its channel/cancellation/session/trace tests run
# under -race here. One step pins every allocation budget (the
# observability machinery adds nothing while tracing is disabled, the
# flight recorder records an anomaly in steady state without allocating,
# and Null over every real-stack transport — exchange, traced exchange,
# udp, udpbatch, tcp — blocking and async, stays at its pinned per-call
# count). The chaos-smoke steps run faultnet/overload under -race (the
# faultnet wrapper's transport conformance included) plus one tail-table
# cell asserting that injected loss inflates p99 without failing calls and
# that the same seed reproduces the same impairment schedule. The
# batched-datapath steps run the transport package under -race (the
# conformance suite over every Transport, TCP included) and cross-build
# for darwin and linux/arm64 so the non-Linux fallback and the arm64
# syscall numbers stay compilable. The runbook steps validate every
# committed scenario runbook's schema (the same cheap gate CI runs before
# the scenario suite) and pin the macro-scenario executor's determinism:
# same runbook + seed => byte-identical report, and the committed overload
# runbook's assertions must detect an admission-policy flip. The tracing
# step races the two-hop chained-call join across real endpoints. The cluster steps race the replica-set layer's concurrent
# machinery — P2C picks against live latency histograms, hedged requests
# with cross-server cancellation, quorum fan-out with straggler cancel,
# the /debug/rpc/cluster view under live traffic — and the registry's
# lease bookkeeping (expiry, refresh loops, multi-address entries).
#
# Usage: verify.sh [-q]
#   -q  quiet: only failures (with the failing step's output) and the final
#       verdict are printed. Used by CI so the log is signal, not scroll.
#
# Every step failure prints "FAIL: <step>" to stderr and exits non-zero;
# scripts/test_verify.sh asserts this contract holds.
set -eu

cd "$(dirname "$0")/.."

QUIET=0
for arg in "$@"; do
	case "$arg" in
	-q | --quiet) QUIET=1 ;;
	*)
		echo "usage: verify.sh [-q]" >&2
		exit 2
		;;
	esac
done

# run <description> <command...>: execute one verification step, echoing it
# unless quiet, and convert any failure into an explicit FAIL message plus a
# non-zero exit (the captured output is replayed on failure in quiet mode).
run() {
	desc="$1"
	shift
	if [ "$QUIET" -eq 1 ]; then
		if ! out=$("$@" 2>&1); then
			echo "FAIL: $desc" >&2
			echo "$out" >&2
			exit 1
		fi
	else
		echo "==> $desc: $*"
		if ! "$@"; then
			echo "FAIL: $desc" >&2
			exit 1
		fi
	fi
}

run "build" go build ./...
run "vet" sh -c 'go vet ./... && go -C perfbench vet ./...'
run "runbook validation" go run ./cmd/fireflysim -validate runbooks/*.json
run "tests" go test ./...
run "race: proto + core" go test -race ./internal/proto ./internal/core
run "race: live sim inspection" go test -race -run 'TestInspectConcurrentWithRun|TestSimSurfaceLive' ./internal/sim ./internal/debughttp
run "alloc budgets" go test -count=1 -run 'TestTraceDisabledAllocBudget|TestFlightRecorderAllocBudget|TestStackAllocBudgets' ./internal/proto ./internal/realbench
run "sim determinism: trace + timings" go test -run 'TestTraceDeterminism|TestTracerDoesNotPerturb' -count=1 ./internal/sim ./internal/simtrace
run "runbook determinism + policy gate" go test -run 'TestRunbookDeterminism|TestOverloadRunbookPolicyFlip' -count=1 ./internal/runbook
run "chaos smoke: faultnet + overload race" go test -race ./internal/faultnet ./internal/overload
run "chaos smoke: tail inflation + determinism" go test -run 'TestTailSweepP99Inflation|TestTailSweepDeterministic' -count=1 ./internal/realbench
run "race: batched transport" go test -race ./internal/transport
run "race: trace-propagation" go test -race -run 'TestChainSpansLinked' ./internal/realbench
run "race: cluster-hedging" go test -race -run 'TestHedged|TestHedge|TestP2C|TestEjection|TestBudgetPropagatesThroughCluster|TestFanout|TestKV|TestStore|TestClusterViewUnderLiveTraffic' ./internal/cluster ./internal/kvstore ./internal/debughttp
run "race: registry-leases" go test -race ./internal/registry
run "cross-build: darwin" env GOOS=darwin go build ./...
run "cross-build: linux/arm64" env GOOS=linux GOARCH=arm64 go build ./...

echo "verify: all checks passed"
