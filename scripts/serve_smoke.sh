#!/bin/sh
# Validation-service smoke test: boot `dqwebre serve`, submit a record
# stream over the job API, poll the job to completion, and assert the
# report and the dqserve job metrics come out live, then SIGKILL the server
# mid-upload and restart it on the same staging dir. CI runs this after the
# unit suites; it is the end-to-end proof that the serve wiring (flag
# parsing → staging → worker pool → engine → report persistence →
# exposition → restart scan) holds together outside the Go test harness.
# Usage: scripts/serve_smoke.sh [port]
set -eu

cd "$(dirname "$0")/.."

port="${1:-18081}"
base="http://127.0.0.1:$port"
workdir="$(mktemp -d)"
server_pid=""
upload_pid=""
cleanup() {
	[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
	[ -n "$upload_pid" ] && kill "$upload_pid" 2>/dev/null || true
	rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir/dqwebre" ./cmd/dqwebre
"$workdir/dqwebre" demo >"$workdir/easychair.xml"

# Records: 40 good reviews, 2 precision failures, a duplicate email for
# the uniqueness check, and one malformed line.
i=0
while [ "$i" -lt 40 ]; do
	printf '{"first_name":"R%s","last_name":"V","email_address":"r%s@conf.org","overall_evaluation":2,"reviewer_confidence":3}\n' "$i" "$i"
	i=$((i + 1))
done >"$workdir/records.ndjson"
{
	printf '{"first_name":"A","last_name":"B","email_address":"r0@conf.org","overall_evaluation":9,"reviewer_confidence":3}\n'
	printf '{"first_name":"C","last_name":"D","email_address":"c@conf.org","overall_evaluation":-7,"reviewer_confidence":3}\n'
	printf 'not json\n'
} >>"$workdir/records.ndjson"

start_server() {
	"$workdir/dqwebre" serve -addr "127.0.0.1:$port" -model "$workdir/easychair.xml" \
		-staging "$workdir/staging" >>"$workdir/server.log" 2>&1 &
	server_pid=$!
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
}
start_server

# Submit the stream with the uniqueness cross-record check riding along.
curl -fsS -X POST --data-binary "@$workdir/records.ndjson" \
	"$base/v1/jobs?unique=email_address" >"$workdir/submit.json"
id="$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' "$workdir/submit.json")"
if [ -z "$id" ]; then
	echo "FAIL: submission did not return a job id:" >&2
	cat "$workdir/submit.json" >&2
	exit 1
fi

# Poll the job to a terminal state.
i=0
while :; do
	curl -fsS "$base/v1/jobs/$id" >"$workdir/status.json"
	state="$(sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' "$workdir/status.json")"
	case "$state" in
	done) break ;;
	failed | cancelled)
		echo "FAIL: job ended $state:" >&2
		cat "$workdir/status.json" >&2
		exit 1
		;;
	esac
	i=$((i + 1))
	if [ "$i" -ge 100 ]; then
		echo "FAIL: job stuck in state '$state'" >&2
		exit 1
	fi
	sleep 0.1
done

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

curl -fsS "$base/v1/jobs/$id/report" >"$workdir/report.json"
assert_contains "$workdir/report.json" '"records": 42' "all decodable records validated"
assert_contains "$workdir/report.json" '"failed": 2' "precision failures counted"
assert_contains "$workdir/report.json" '"malformed": 1' "malformed line counted"
assert_contains "$workdir/report.json" '"check": "check_uniqueness"' "uniqueness finding in report"
assert_contains "$workdir/report.json" '"line": 43' "decode error carries its line"

curl -fsS "$base/v1/jobs/$id/report?format=text" >"$workdir/report.txt"
assert_contains "$workdir/report.txt" 'records' "text rendering works"

curl -fsS "$base/metrics" >"$workdir/metrics.txt"
assert_contains "$workdir/metrics.txt" '^dqserve_jobs_total{state="submitted"} 1' "submitted counter"
assert_contains "$workdir/metrics.txt" '^dqserve_jobs_total{state="completed"} 1' "completed counter"
assert_contains "$workdir/metrics.txt" '^dqserve_queue_depth 0' "queue drained"
assert_contains "$workdir/metrics.txt" '^# TYPE dq_score gauge' "quality windows exported"

curl -fsS "$base/debug/quality" >"$workdir/quality.json"
assert_contains "$workdir/quality.json" '"characteristic": "Precision"' "precision series in quality report"

# The job-mode load generator consumes the same API.
"$workdir/dqwebre" load -url "$base" -jobs 3 -job-body "$workdir/records.ndjson" \
	-c 2 >"$workdir/load.txt"
assert_contains "$workdir/load.txt" '3 submitted (3 done' "load -jobs drives the job API"

# Crash mid-upload: SIGKILL the server while a rate-limited 2 MiB+ upload
# is being staged, then restart it on the same staging dir. The dead
# upload never got a job id, so the restart must remove its files, and
# the finished job's report must be served byte-identically.
cp "$workdir/records.ndjson" "$workdir/big.ndjson"
while [ "$(wc -c <"$workdir/big.ndjson")" -lt 2097152 ]; do
	cat "$workdir/big.ndjson" "$workdir/big.ndjson" >"$workdir/big.tmp"
	mv "$workdir/big.tmp" "$workdir/big.ndjson"
done
count_inputs() { ls "$workdir/staging" | grep -c '\.input$' || true; }
count_orphans() { # staging files of an id without a job manifest
	n=0
	for f in "$workdir"/staging/*; do
		name="${f##*/}"
		[ -f "$workdir/staging/${name%%.*}.job" ] || n=$((n + 1))
	done
	echo "$n"
}
inputs_before="$(count_inputs)"
curl -sS --limit-rate 256K -X POST --data-binary "@$workdir/big.ndjson" \
	"$base/v1/jobs" >/dev/null 2>&1 &
upload_pid=$!
i=0
until [ "$(count_inputs)" -gt "$inputs_before" ]; do
	i=$((i + 1))
	if [ "$i" -ge 100 ]; then
		echo "FAIL: slow upload never reached the staging dir" >&2
		exit 1
	fi
	sleep 0.05
done
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
kill "$upload_pid" 2>/dev/null || true
wait "$upload_pid" 2>/dev/null || true
upload_pid=""
if [ "$(count_orphans)" -eq 0 ]; then
	echo "FAIL: the kill left no half-staged upload behind" >&2
	fail=1
fi
start_server
if [ "$(count_orphans)" -eq 0 ]; then
	echo "ok: restart removed the killed upload's files"
else
	echo "FAIL: staging files without a job manifest survived the restart:" >&2
	ls "$workdir/staging" >&2
	fail=1
fi
curl -fsS "$base/v1/jobs/$id/report" >"$workdir/report_restarted.json"
if cmp -s "$workdir/report.json" "$workdir/report_restarted.json"; then
	echo "ok: report served byte-identically after SIGKILL and restart"
else
	echo "FAIL: report changed across SIGKILL and restart" >&2
	fail=1
fi

# Graceful drain: SIGTERM must land a clean shutdown.
kill "$server_pid"
i=0
while kill -0 "$server_pid" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -ge 50 ]; then
		echo "FAIL: server did not exit on SIGTERM" >&2
		exit 1
	fi
	sleep 0.2
done
server_pid=""
assert_contains "$workdir/server.log" 'shutdown complete' "graceful drain completed"

if [ "$fail" -ne 0 ]; then
	echo "serve smoke FAILED" >&2
	exit 1
fi
echo "serve smoke passed"
