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
# durability). --no-fail-fast runs every suite even after one fails, so
# the log shows all failing suites; any failure still fails the gate.
# The gates below run what tests do not: examples, experiment
# kick-tires and the benchmark.
cargo test --workspace -q --no-fail-fast

echo "== entry points (the documented examples: a runtime panic fails CI) =="
for example in quickstart site_audience sensor_pipeline observability; do
    cargo run --release -q --example "$example" > /dev/null
done

echo "== event-time gate (watermarks, windows, lateness) =="
cargo run --release -q --example windowed > /dev/null

echo "== chaos gate (supervision: panics, drops, kills, quarantine) =="
cargo run --release -q --example supervised > /dev/null

echo "== query gate (declarative plans, epoch-swapped serving, lambda merge) =="
cargo run --release -q --example trending_hashtags > /dev/null
cargo run --release -q --example lambda_wordcount > /dev/null

echo "== scheduler gate (driver equivalence, chaos, idle CPU) =="
# One example under both drivers (the example asserts identical counts
# and prints the pool's per-worker run/park counters).
cargo run --release -q --example scheduled_wordcount | grep -q "identical counts"

echo "== experiment kick-tires (recovery, event time, serving, scheduler, rescale, durability) =="
# T2.C crash + restart from the spout's settled frontier at three
# checkpoint intervals (asserts every recovered sketch equals the
# uninterrupted one); T2.E watermark bound × lateness through real topologies (asserts
# which cells drop nothing and which amend fired windows); T2.G reader sweep; T2.H driver sweep (asserts clean runs and full
# delivery); T2.J autoscaler vs a Zipf hot-key storm through a
# Parallelism::Auto query (asserts exact counts through every live
# migration); T2.K fsync discipline and a kill -9 round-trip (asserts
# bit-identical recovery). Wall-clock ratios and whether T2.J scaled up
# and drained are recorded in out/, never gated.
cargo run --release -q -p sa-bench --bin experiments t2.c t2.e t2.g t2.h t2.j t2.k

echo "== benchmark package (layers builds, the package's unit tests pass) =="
# run.sh tolerates a failed `layers` build so end-to-end rows still come
# out, which would leave every per-layer row `skipped` with CI green.
# `layers` reaches below the front door (`Acker`, `channel`, `Frame`),
# so build it explicitly. The package's tests check the catalog against
# BENCHMARK.json, the checker's negative self-tests and generator
# determinism.
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir target/benchmark --bin layers
cargo test -q --offline --manifest-path benchmark/Cargo.toml --target-dir target/benchmark

echo "== benchmark smoke (repo benchmark builds, runs, matches its reference) =="
# Three quick workloads, untraced and traced; run.sh exits non-zero on
# a reference mismatch. drain_mem is the saturated path; drain_disk is
# the only workload whose checkpoints go through a durable WAL and whose
# restart replays from it; paced_mem is the open-loop one, where the
# windowed tasks go idle between small batches and commit once their
# input has been quiet for a tick.
bash benchmark/run.sh --quick --workload drain_mem > /dev/null
bash benchmark/run.sh --quick --workload drain_disk > /dev/null
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
