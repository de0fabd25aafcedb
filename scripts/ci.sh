#!/usr/bin/env bash
# Local CI gate: style + lints + build + tests.
# Run from the repo root:  ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, no deps, -D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo build --release =="
cargo build --workspace --release

echo "== cargo test =="
# Every test suite, once: the engine's unit tests (rescale::, storage::,
# checkpoint::, log:: among them), crates/platform/tests (observability,
# regressions, event_time, query, serving, scheduler, idle_cpu,
# dataplane) and the façade's tests/ (recovery, chaos, rescale,
# durability). The gates below run what tests do not: examples,
# experiment kick-tires and the benchmark.
cargo test --workspace -q

echo "== event-time gate (watermarks, windows, lateness) =="
cargo run --release -q --example windowed > /dev/null

echo "== chaos gate (supervision: panics, drops, kills, quarantine) =="
cargo run --release -q --example supervised > /dev/null

echo "== query gate (declarative plans, epoch-swapped serving, lambda merge) =="
cargo run --release -q --example trending_hashtags > /dev/null
cargo run --release -q --example lambda_wordcount > /dev/null
cargo run --release -q -p sa-bench --bin experiments t2.g

echo "== scheduler gate (driver equivalence, chaos, idle CPU) =="
# One example under both drivers (the example asserts identical counts
# and that the pool's per-worker steal/run/park counters are live).
cargo run --release -q --example scheduled_wordcount | grep -q "identical counts"
# T2.H kick-tires: dedicated driver vs pool worker sweep, and the
# channel-bound chain3 under both; the bench asserts clean runs and full
# delivery, and records the scaling ratios as numbers (one wall-clock
# run each, not gated).
cargo run --release -q -p sa-bench --bin experiments t2.h

echo "== rescale gate (key-group routing, live migration chaos, autoscaler) =="
# T2.J kick-tires: autoscaler vs a Zipf hot-key storm through a
# Parallelism::Auto query; the hard bar is exactness through every
# live migration (scaled_up/drained are recorded but timing-dependent).
cargo run --release -q -p sa-bench --bin experiments t2.j
grep -q '"rescale_exact_ok": true' BENCH_rescale.json

echo "== durability gate (WAL round-trips, torn tails, fault sweeps, kill -9) =="
# T2.K kick-tires: fsync-every vs group-commit goodput, recovery
# latency, and a kill -9 round-trip; the hard bar is exactness.
cargo run --release -q -p sa-bench --bin experiments t2.k
grep -q '"kill9_exact_ok": true' BENCH_durability.json

echo "== benchmark smoke (repo benchmark builds, runs, matches its reference) =="
# One quick workload, untraced and traced; run.sh exits non-zero on a
# reference mismatch.
bash benchmark/run.sh --quick --workload drain_mem > /dev/null

echo "CI gate passed."
