#!/bin/sh
# Tests scripts/verify.sh's exit-code contract without running the real
# toolchain: a fake `go` binary shimmed onto PATH stands in for every step,
# so the test asserts (1) a failing step fails the script loudly, (2) a
# passing run exits zero, (3) unknown flags are rejected — in milliseconds.
# CI runs this before verify.sh itself: a verify script that swallows
# failures would otherwise turn the whole pipeline green forever.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
	echo "test_verify: FAIL - $1" >&2
	exit 1
}

# 1. A failing toolchain must fail the script and name the failing step.
cat >"$tmp/go" <<'EOF'
#!/bin/sh
exit 3
EOF
chmod +x "$tmp/go"
set +e
out=$(PATH="$tmp:$PATH" sh scripts/verify.sh -q 2>&1)
status=$?
set -e
[ "$status" -ne 0 ] || fail "verify.sh exited 0 under a failing toolchain"
case "$out" in
*"FAIL: build"*) ;;
*) fail "failing build did not print 'FAIL: build' (got: $out)" ;;
esac

# 2. A passing toolchain must exit zero and report success.
cat >"$tmp/go" <<'EOF'
#!/bin/sh
exit 0
EOF
chmod +x "$tmp/go"
set +e
out=$(PATH="$tmp:$PATH" sh scripts/verify.sh -q 2>&1)
status=$?
set -e
[ "$status" -eq 0 ] || fail "verify.sh exited $status under a passing toolchain ($out)"
case "$out" in
*"all checks passed"*) ;;
*) fail "passing run did not report success (got: $out)" ;;
esac

# 3. A failure mid-pipeline (vet, not build) must also propagate.
cat >"$tmp/go" <<'EOF'
#!/bin/sh
[ "$1" = "vet" ] && exit 5
exit 0
EOF
chmod +x "$tmp/go"
set +e
out=$(PATH="$tmp:$PATH" sh scripts/verify.sh -q 2>&1)
status=$?
set -e
[ "$status" -ne 0 ] || fail "verify.sh swallowed a mid-pipeline vet failure"
case "$out" in
*"FAIL: vet"*) ;;
*) fail "vet failure did not print 'FAIL: vet' (got: $out)" ;;
esac

# 4. A failure in the test suite (go test without -race) must propagate
# with its own step name.
cat >"$tmp/go" <<'EOF'
#!/bin/sh
[ "$1" = "test" ] && [ "$2" = "./..." ] && exit 7
exit 0
EOF
chmod +x "$tmp/go"
set +e
out=$(PATH="$tmp:$PATH" sh scripts/verify.sh -q 2>&1)
status=$?
set -e
[ "$status" -ne 0 ] || fail "verify.sh swallowed a test failure"
case "$out" in
*"FAIL: tests"*) ;;
*) fail "test failure did not print 'FAIL: tests' (got: $out)" ;;
esac

# 5. A failure in the race pass must propagate with its own step name.
cat >"$tmp/go" <<'EOF'
#!/bin/sh
for a in "$@"; do
	case "$a" in
	-race) exit 9 ;;
	esac
done
exit 0
EOF
chmod +x "$tmp/go"
set +e
out=$(PATH="$tmp:$PATH" sh scripts/verify.sh -q 2>&1)
status=$?
set -e
[ "$status" -ne 0 ] || fail "verify.sh swallowed a race failure"
case "$out" in
*"FAIL: race"*) ;;
*) fail "race failure did not print 'FAIL: race' (got: $out)" ;;
esac

# 6. A failure in the last step (the arm64 cross-build) must propagate
# too: the contract covers the whole pipeline, not just the early steps.
cat >"$tmp/go" <<'EOF'
#!/bin/sh
[ "${GOARCH:-}" = "arm64" ] && exit 11
exit 0
EOF
chmod +x "$tmp/go"
set +e
out=$(PATH="$tmp:$PATH" sh scripts/verify.sh -q 2>&1)
status=$?
set -e
[ "$status" -ne 0 ] || fail "verify.sh swallowed a cross-build failure"
case "$out" in
*"FAIL: cross-build: linux/arm64"*) ;;
*) fail "cross-build failure did not print its step (got: $out)" ;;
esac

# 7. A failure in the runbook-validation step must propagate with its own
# step name — the scenario suite's schema gate is part of the contract.
cat >"$tmp/go" <<'EOF'
#!/bin/sh
for a in "$@"; do
	case "$a" in
	*fireflysim*) exit 13 ;;
	esac
done
exit 0
EOF
chmod +x "$tmp/go"
set +e
out=$(PATH="$tmp:$PATH" sh scripts/verify.sh -q 2>&1)
status=$?
set -e
[ "$status" -ne 0 ] || fail "verify.sh swallowed a runbook-validation failure"
case "$out" in
*"FAIL: runbook validation"*) ;;
*) fail "runbook-validation failure did not print its step (got: $out)" ;;
esac

# 8. Unknown flags are rejected with a usage error.
set +e
sh scripts/verify.sh --bogus >/dev/null 2>&1
status=$?
set -e
[ "$status" -eq 2 ] || fail "unknown flag exited $status, want 2"

echo "test_verify: ok"
