#!/bin/sh
# Tier-1 verification, seven steps, each test run once per mode: build; vet
# (examples and commands included via ./..., plus the perfbench module,
# which ./... does not reach); validation of every committed scenario
# runbook's schema; the full test suite, which includes the allocation
# budgets (TestStackAllocBudgets and the tracing and flight-recorder
# budgets skip under -race, whose instrumentation allocates), sim and
# runbook determinism, the overload runbook's policy gate and the
# tail-table inflation cell; one race-detector pass over every package
# (proto's lock-sharded channels, retransmission engine and session
# negotiation, the transport conformance suite, faultnet, overload, the
# cluster client and the registry's leases among them); and cross-builds
# for darwin and linux/arm64, which keep the non-Linux per-frame read loop
# and the arm64 recvmmsg/sendmmsg syscall numbers compilable.
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
run "race" go test -race ./...
run "cross-build: darwin" env GOOS=darwin go build ./...
run "cross-build: linux/arm64" env GOOS=linux GOARCH=arm64 go build ./...

echo "verify: all checks passed"
