#!/bin/sh
# Repository verify path: everything CI (and a contributor) runs before
# merging. Extends the tier-1 gate (go build && go test) with go vet and
# the race detector — the observability layer is all lock-free atomics and
# context plumbing, so every test run under -race is part of the contract.
set -eux

cd "$(dirname "$0")/.."

# unsafe stays inside the two string-view helpers, each with its lifetime
# rule: NDJSON cells (internal/dqbatch/jsonfast.go) and cross-record keys
# (internal/dqruntime/stateful.go). Any other non-test file importing it
# fails the check.
unsafe_users=$(find . \( -path ./.git -o -path ./.bench_build \) -prune -o \
	-name '*.go' ! -name '*_test.go' -print |
	xargs grep -lE '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_.][A-Za-z0-9_]*[[:space:]]+)?"unsafe"' |
	grep -vxE '\./internal/dqbatch/jsonfast\.go|\./internal/dqruntime/stateful\.go' || true)
if [ -n "$unsafe_users" ]; then
	echo "unsafe imported outside the view helpers: $unsafe_users" >&2
	exit 1
fi

go vet ./...
go build ./...
go test ./...
go test -race ./...
