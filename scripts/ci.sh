#!/usr/bin/env bash
# Local CI gate: style + lints + build + tests.
# Run from the repo root:  ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Every output lands in ignored directories (target/, out/,
# benchmark/out/); the last step checks that nothing tracked changed.
in_git=false
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    in_git=true
    status_before="$(git status --porcelain)"
fi

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

echo "== scheduler gate (driver equivalence, chaos, idle CPU) =="
# One example under both drivers (the example asserts identical counts
# and that the pool's per-worker steal/run/park counters are live).
cargo run --release -q --example scheduled_wordcount | grep -q "identical counts"

echo "== experiment kick-tires (event time, serving, scheduler, rescale, durability) =="
# T2.E watermark bound × lateness through real topologies (asserts
# which cells drop nothing and which amend fired windows); T2.G reader sweep; T2.H driver sweep (asserts clean runs and full
# delivery); T2.J autoscaler vs a Zipf hot-key storm through a
# Parallelism::Auto query (asserts exact counts through every live
# migration); T2.K fsync discipline and a kill -9 round-trip (asserts
# bit-identical recovery). Wall-clock ratios and whether T2.J scaled up
# and drained are recorded in out/, never gated.
cargo run --release -q -p sa-bench --bin experiments t2.e t2.g t2.h t2.j t2.k

echo "== benchmark smoke (repo benchmark builds, runs, matches its reference) =="
# Two quick workloads, untraced and traced; run.sh exits non-zero on a
# reference mismatch. drain_mem is the saturated path; paced_mem is the
# open-loop one, where the aggregation tasks commit on every idle.
bash benchmark/run.sh --quick --workload drain_mem > /dev/null
bash benchmark/run.sh --quick --workload paced_mem > /dev/null

if $in_git; then
    echo "== tree unchanged =="
    if [ "$(git status --porcelain)" != "$status_before" ]; then
        echo "ci.sh changed the working tree:" >&2
        git status --short >&2
        exit 1
    fi
fi

echo "CI gate passed."
