#!/bin/sh
# Telemetry smoke test: boot the easychair server, drive one full review
# flow through the HTTP surface, then assert the quality telemetry is live —
# the dq_score windowed family on /metrics, per-characteristic trends on
# /debug/quality, and the thresholds behind /dq/metrics and /dq/violations
# reading the same number as dq_score. CI runs this after the unit suites;
# it is the end-to-end proof that check-level attribution survives the
# whole wiring (enforcer → observer → series → exposition), not just the
# package tests.
# Usage: scripts/telemetry_smoke.sh [port]
set -eu

cd "$(dirname "$0")/.."

port="${1:-18080}"
base="http://127.0.0.1:$port"
workdir="$(mktemp -d)"
server_pid=""
cleanup() {
	[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
	rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir/easychair" ./cmd/easychair
"$workdir/easychair" -addr "127.0.0.1:$port" >"$workdir/server.log" 2>&1 &
server_pid=$!

# Wait for the server to answer its liveness probe.
i=0
until curl -fsS "$base/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -ge 50 ]; then
		echo "FAIL: server did not become healthy" >&2
		cat "$workdir/server.log" >&2
		exit 1
	fi
	sleep 0.2
done

# Full review flow: author submits a paper, the chair assigns a reviewer,
# the reviewer (role pc → the quality context label) submits a valid review
# and an invalid one (evaluation outside [-3,3]).
curl -fsS -c "$workdir/author.txt" -d 'user=ada&role=author&level=0' "$base/login" >/dev/null
curl -fsS -b "$workdir/author.txt" -d 'title=Smoke Paper&authors=A' "$base/papers" >/dev/null
curl -fsS -c "$workdir/chair.txt" -d 'user=chair&role=chair&level=3' "$base/login" >/dev/null
curl -fsS -b "$workdir/chair.txt" -d 'reviewer=grace' "$base/papers/1/assign" >/dev/null
curl -fsS -c "$workdir/pc.txt" -d 'user=grace&role=pc&level=2' "$base/login" >/dev/null
curl -fsS -b "$workdir/pc.txt" \
	-d 'first_name=Grace&last_name=Hopper&email_address=g@h.io&overall_evaluation=2&reviewer_confidence=4' \
	"$base/papers/1/reviews" >/dev/null
# The invalid review is rejected with 422 — that failure must show up in
# the failure telemetry below.
status="$(curl -s -o /dev/null -w '%{http_code}' -b "$workdir/pc.txt" \
	-d 'first_name=Grace&last_name=Hopper&email_address=g@h.io&overall_evaluation=9&reviewer_confidence=4' \
	"$base/papers/1/reviews")"
if [ "$status" != "422" ]; then
	echo "FAIL: invalid review returned $status, want 422" >&2
	exit 1
fi

fail=0
assert_contains() {
	# assert_contains <file> <pattern> <label>
	if grep -q "$2" "$1"; then
		echo "ok: $3"
	else
		echo "FAIL: $3 — pattern '$2' not found" >&2
		fail=1
	fi
}

curl -fsS "$base/metrics" >"$workdir/metrics.txt"
assert_contains "$workdir/metrics.txt" '^# TYPE dq_score gauge' "dq_score family declared"
assert_contains "$workdir/metrics.txt" '^dq_score{characteristic="Completeness",context="pc",window="current"} 1' "completeness window scored"
assert_contains "$workdir/metrics.txt" '^dq_score{characteristic="Precision",context="pc",window="current"}' "precision window present"
assert_contains "$workdir/metrics.txt" '^dq_check_failures{characteristic="Precision",context="pc",window="current"} 1' "precision failure attributed"
assert_contains "$workdir/metrics.txt" '^dq_score_trend{characteristic="Precision",context="pc",stat="ewma"}' "trend exported"
assert_contains "$workdir/metrics.txt" '^dq_check_seconds_count{check="check_precision"} 4' "check latency histogram"
# Four Precision checks, one failed: every DQ view reads the mean 0.75.
assert_contains "$workdir/metrics.txt" '^dq_score{characteristic="Precision",context="pc",window="current"} 0.75$' "precision window mean"
assert_contains "$workdir/metrics.txt" '^dq_threshold_violations 1$' "threshold violation exported"
if grep -q '^dq_measure_' "$workdir/metrics.txt"; then
	echo "FAIL: a dq_measure_ family is still exported" >&2
	fail=1
else
	echo "ok: no dq_measure_ family"
fi

curl -fsS "$base/dq/metrics" >"$workdir/dqmetrics.txt"
assert_contains "$workdir/dqmetrics.txt" '^dq/Precision .* mean=0\.750 ' "dq/metrics precision mean matches dq_score"
curl -fsS "$base/dq/violations" >"$workdir/violations.txt"
assert_contains "$workdir/violations.txt" '"dq/Precision".*below threshold' "precision below threshold"

curl -fsS "$base/debug/quality" >"$workdir/quality.json"
assert_contains "$workdir/quality.json" '"name": "dq_score"' "quality report named"
assert_contains "$workdir/quality.json" '"characteristic": "Precision"' "precision series in report"
assert_contains "$workdir/quality.json" '"context": "pc"' "context label in report"
assert_contains "$workdir/quality.json" '"ewma":' "trend in report"
assert_contains "$workdir/quality.json" '"failures": 1' "failure count in report"

# The watch subcommand consumes the same endpoint.
go run ./cmd/dqwebre watch -url "$base" -n 1 -plain >"$workdir/watch.txt"
assert_contains "$workdir/watch.txt" 'Precision' "watch renders precision row"
assert_contains "$workdir/watch.txt" 'CHARACTERISTIC' "watch renders table header"

if [ "$fail" -ne 0 ]; then
	echo "telemetry smoke FAILED" >&2
	exit 1
fi
echo "telemetry smoke passed"
