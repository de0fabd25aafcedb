#!/usr/bin/env bash
# Regenerates the tracked experiments_results.json: runs every
# experiment (writing out/experiments_results.json), then copies that
# file over the tracked one. Takes about 90 s on a 2-vCPU host.
# Run from anywhere:  ./scripts/full.sh
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release -q -p sa-bench --bin experiments
cp out/experiments_results.json experiments_results.json
