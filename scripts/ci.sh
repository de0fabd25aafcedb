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
cargo test --workspace -q

echo "== crash/recovery gate (exactly-once under both semantics) =="
cargo test -q --test recovery

echo "== observability gate (latency histograms, queue gauges, bug regressions) =="
cargo test -q -p sa-platform --test observability --test regressions

echo "== event-time gate (watermarks, windows, lateness) =="
cargo test -q -p sa-platform --test event_time
cargo run --release -q --example windowed > /dev/null

echo "== chaos gate (supervision: panics, drops, kills, quarantine) =="
cargo test -q --test chaos
cargo run --release -q --example supervised > /dev/null

echo "== query gate (declarative plans, epoch-swapped serving, lambda merge) =="
cargo test -q -p sa-platform --test query --test serving
cargo run --release -q --example trending_hashtags > /dev/null
cargo run --release -q --example lambda_wordcount > /dev/null
cargo run --release -q -p sa-bench --bin experiments t2.g

echo "== scheduler gate (driver equivalence, chaos, idle CPU) =="
# One runtime, two drivers: the dedicated driver (ThreadPerTask, a
# thread per slot over bounded inboxes) and the pool driver
# (WorkStealing) must agree tuple for tuple and both idle at ~0 CPU.
cargo test -q -p sa-platform --test scheduler --test idle_cpu
# One example under both drivers (the example asserts identical counts
# and that the pool's per-worker steal/run/park counters are live).
cargo run --release -q --example scheduled_wordcount | grep -q "identical counts"
# T2.H kick-tires: dedicated driver vs pool worker sweep, and the
# channel-bound chain3 under both; the bench asserts clean runs and full
# delivery, and records the scaling ratios as numbers (one wall-clock
# run each, not gated).
cargo run --release -q -p sa-bench --bin experiments t2.h

echo "== data plane gate (fan-out allocs and per-target delivery, frame pivot round-trip) =="
cargo test -q -p sa-platform --test dataplane

echo "== rescale gate (key-group routing, live migration chaos, autoscaler) =="
# Sharded tasks are the one operator shell (operator::Checkpointed) with
# a slot per owned key-group: its unit tests pin the ack rule, per-group
# commits and the restore of migrated groups; the suite drives it live.
cargo test -q -p sa-platform --lib -- rescale::
cargo test -q --test rescale
# T2.J kick-tires: autoscaler vs a Zipf hot-key storm through a
# Parallelism::Auto query; the hard bar is exactness through every
# live migration (scaled_up/drained are recorded but timing-dependent).
cargo run --release -q -p sa-bench --bin experiments t2.j
grep -q '"rescale_exact_ok": true' BENCH_rescale.json

echo "== durability gate (WAL round-trips, torn tails, fault sweeps, kill -9) =="
# Storage-engine unit tests (framing, torn-tail truncation, ≥100-point
# corruption sweeps) plus the process-kill harness: a child SIGKILLed
# mid-stream must recover bit-identical counts on both schedulers and
# through a live rescale.
cargo test -q -p sa-platform --lib -- storage:: checkpoint:: log::
cargo test -q --test durability
# T2.K kick-tires: fsync-every vs group-commit goodput, recovery
# latency, and a kill -9 round-trip; the hard bar is exactness.
cargo run --release -q -p sa-bench --bin experiments t2.k
grep -q '"kill9_exact_ok": true' BENCH_durability.json

echo "== benchmark smoke (repo benchmark builds, runs, matches its reference) =="
# One quick workload, untraced and traced; run.sh exits non-zero on a
# reference mismatch.
bash benchmark/run.sh --quick --workload drain_mem > /dev/null

echo "CI gate passed."
