#!/usr/bin/env bash
# Runs one test many times to measure how often it fails. The test
# binary is built once (`cargo test --no-run`), then run RUNS times with
# no retries; the script prints the failure count and keeps the output
# of the first failing run.
#
#   scripts/soak.sh PACKAGE TEST-FILTER RUNS
#   scripts/soak.sh genie-workload cache_mix_survives_node_kill_and_rejoin 200
#
# TEST-FILTER is matched as libtest matches it (substring of the test
# path); it must name tests in exactly one of the package's test
# binaries. The first failing run's output is kept in
# target/soak/<filter>.log. Exits non-zero if any run failed.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 3 ]; then
    echo "usage: $0 PACKAGE TEST-FILTER RUNS" >&2
    exit 2
fi
package=$1
filter=$2
runs=$3

# Every test executable the package builds, one path a line.
bins=$(cargo test -q -p "$package" --no-run --message-format=json \
    | jq -r 'select(.reason == "compiler-artifact" and .executable != null) | .executable')

bin=""
for candidate in $bins; do
    if [ -n "$("$candidate" --list "$filter" 2>/dev/null | grep ': test$' || true)" ]; then
        if [ -n "$bin" ]; then
            echo "soak: '$filter' matches tests in more than one binary of $package" >&2
            exit 2
        fi
        bin=$candidate
    fi
done
if [ -z "$bin" ]; then
    echo "soak: no test of $package matches '$filter'" >&2
    exit 2
fi
matched=$("$bin" --list "$filter" | grep -c ': test$')

mkdir -p target/soak
log="target/soak/${filter//[^A-Za-z0-9_.-]/_}.log"
rm -f "$log"
out=$(mktemp)
trap 'rm -f "$out"' EXIT

failures=0
for ((i = 1; i <= runs; i++)); do
    if ! "$bin" "$filter" >"$out" 2>&1; then
        failures=$((failures + 1))
        if [ ! -f "$log" ]; then
            { echo "# run $i of $runs"; cat "$out"; } >"$log"
        fi
    fi
done

echo "soak: $package '$filter' ($matched test(s) in $(basename "$bin")): $failures of $runs runs failed"
if [ "$failures" -gt 0 ]; then
    echo "soak: first failing output kept in $log"
    exit 1
fi
