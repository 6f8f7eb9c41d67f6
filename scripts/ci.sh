#!/usr/bin/env bash
# Full verification gate for the workspace; run from the repo root.
# Mirrors what a CI job would run — keep it green before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> serving benchmark: cargo fmt --check + clippy (its own workspace, outside the two above)"
cargo fmt --check --manifest-path benchmark/Cargo.toml
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> examples (each runs to exit 0 against the public ORM and CacheGenie API)"
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)" > /dev/null
done

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --doc (public-API doctests: transactions, snapshots, vacuum)"
cargo test --doc -q

echo "==> cargo build --benches (criterion harnesses compile)"
cargo build --benches -q

echo "==> plan_audit --check (social-app page-query plan regressions)"
cargo run --release -q -p genie-bench --bin plan_audit -- --check > /dev/null

echo "==> trigger_audit --check (commit-pipeline effect-coalescing regressions)"
cargo run --release -q -p genie-bench --bin trigger_audit -- --check > /dev/null

echo "==> concurrency_audit --check (multi-writer thread sweep + MVCC reader gate + disjoint-table latch gate + cache-tier kill/rejoin gate on 4 unreplicated servers: no livelock, abort/conflict ceilings, zero reader blocking, zero table-latch waits, cache coherence through node failure)"
cargo run --release -q -p genie-bench --bin concurrency_audit -- --check > /dev/null

echo "==> exp_cache_scale --check (cache tier: near-flat p99 across 1-8 servers, zero violations through node kill/rejoin on 4 unreplicated servers)"
cargo run --release -q -p genie-bench --bin exp_cache_scale -- --check --quick > /dev/null

echo "==> exp_wal --check (durability: 10k-commit crash recovery to the exact committed state with zero in-flight leakage)"
cargo run --release -q -p genie-bench --bin exp_wal -- --check --quick > /dev/null

echo "==> exp_serve --check (serving path: paced loopback fleet holds the per-page p99 ceiling with zero shed below the admission threshold, overload sheds retryably, drains drop nothing, zero snapshot/coherence violations)"
cargo run --release -q -p genie-bench --bin exp_serve -- --check --quick > /dev/null

echo "==> serving benchmark: self-check (its own tests; compiles against the public API unchanged)"
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> serving benchmark: --smoke (correctness gate on all four workloads at 1/50 length)"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke > /dev/null

echo "ci.sh: all green"
