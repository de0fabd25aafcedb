#!/usr/bin/env bash
# The repo benchmark, one command.
#
#   benchmark/run.sh [--seed N] [--quick] [--workload NAME] [--seconds S]
#                    [--repeat K] [--label L]
#       Build, then run every workload (or the named one) untraced for the
#       end-to-end metrics and again traced for the per-layer metrics, K
#       times over. Prints every metric as `name unit value`; collects the
#       passes in benchmark/out/set_<label>.json for benchmark/compare.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One pass (the form BENCHMARK.json's command is run in). The last
#       line of stdout is the result object.
#
# Builds into $CARGO_TARGET_DIR, or target/benchmark when that is unset.
# Run from anywhere; paths are resolved from the repo root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-target/benchmark}"
out="benchmark/out"

seed=1 quick="" workload="" seconds="" trace="" repeat=1 label=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --workload) workload="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --label) label="$2"; shift 2 ;;
    --quick) quick="--quick"; shift ;;
    -h|--help) sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

build() {
  cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir "$target" --bin "$1" >&2
}
build e2e
# `layers` needs engine APIs below the front door. When a refactor breaks
# it, the end-to-end pass must still run: its rows then read `skipped`.
if ! build layers; then
  echo "run.sh: layers did not build; per-layer replays will read skipped" >&2
  rm -f "$target/release/layers"
fi
mkdir -p "$out"

pass() { # workload trace
  "$target/release/e2e" --workload "$1" --seed "$seed" --trace "$2" --out-dir "$out" \
    ${seconds:+--seconds "$seconds"} $quick
}

if [ -n "$trace" ]; then
  [ -n "$workload" ] || { echo "run.sh: --trace needs --workload" >&2; exit 2; }
  pass "$workload" "$trace"
  exit
fi

workloads="${workload:-drain_mem drain_disk paced_mem sketch_drain}"
label="${label:-seed$seed${quick:+_quick}}"
set_file="$out/set_$label.json"
tag="${quick:+_quick}"
failed=0
printf '[' > "$set_file.tmp"
first=1
for round in $(seq 1 "$repeat"); do
  for w in $workloads; do
    for t in 0 1; do
      echo "== $w trace=$t seed=$seed round=$round"
      pass "$w" "$t" || failed=1
      result="$out/${w}_trace${t}_seed${seed}${tag}.json"
      if [ -f "$result" ]; then
        [ "$first" = 1 ] || printf ',\n' >> "$set_file.tmp"
        first=0
        cat "$result" >> "$set_file.tmp"
      fi
    done
  done
done
printf ']\n' >> "$set_file.tmp"
mv "$set_file.tmp" "$set_file"
echo "results: $set_file"
exit "$failed"
