#!/usr/bin/env bash
# Runs the full benchmark as two sets of runs and prints, per workload and
# end-to-end metric, both medians, the relative spread of each set, the
# drift of the second median against the first, and the bound from
# BENCHMARK.json. This is the acceptance procedure a benchmark driver
# applies; its output for a commit is what benchmark/BASELINE.md records.
#
#   benchmark/repeat.sh [runs-per-set] [first-seed]     (defaults: 10, 100)
#
# Every run uses another --seed. Run from anywhere: paths are resolved
# from this script's location, and the build goes to benchmark/target
# unless CARGO_TARGET_DIR says otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${1:-10}"
seed0="${2:-100}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exe="${CARGO_TARGET_DIR:-$here/target}/release/genie-benchmark"

exec python3 - "$exe" "$root/BENCHMARK.json" "$runs" "$seed0" <<'EOF'
import json, os, statistics, subprocess, sys, time

exe, spec_path, runs, seed0 = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
spec = json.load(open(spec_path))
seconds = str(spec["run_seconds"])
metrics = spec["end_to_end"]

def rustc():
    try:
        return subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"

def one(workload, seed, trace):
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stdout[-3000:]}\n{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

print(f"host: nproc={os.cpu_count()} rustc=\"{rustc()}\" run_seconds={seconds} scale=1 "
      f"runs_per_set={runs} seeds={seed0}..{seed0 + 2 * runs - 1}")
started = time.time()
verdicts = []
for w in (x["name"] for x in spec["workloads"]):
    sets = []
    for s in range(2):
        rows = [one(w, seed0 + s * runs + i, 0) for i in range(runs)]
        sets.append({m["name"]: [r[m["name"]] for r in rows] for m in metrics})
    print(f"\n## {w}\n")
    print("| metric | unit | median 1 | median 2 | spread 1 | spread 2 | drift (worse +) | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for m in metrics:
        a, b = sets[0][m["name"]], sets[1][m["name"]]
        ma, mb = statistics.median(a), statistics.median(b)
        drift = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        ok = drift <= m["bound"] and (m["name"] == "setup_s" or max(sa, sb) <= m["bound"])
        verdicts.append(ok)
        print(f"| {m['name']} | {m['unit']} | {ma:.4f} | {mb:.4f} | {sa:.1%} | {sb:.1%} | "
              f"{drift:+.1%} | {m['bound']:.0%} | {'ok' if ok else 'OUTSIDE'} |")
    layers = one(w, seed0, 1)
    print(f"\nPer-layer ledger of `{w}` (one traced run, seed {seed0}):\n")
    print("| layer metric | value | unit |")
    print("|---|---|---|")
    for m in spec["per_layer"]:
        print(f"| {m['name']} | {layers[m['name']]:.4f} | {m['unit']} |")
print(f"\n{sum(verdicts)} of {len(verdicts)} metric-workload pairs within their bounds; "
      f"{time.time() - started:.0f} s")
sys.exit(0 if all(verdicts) else 1)
EOF
