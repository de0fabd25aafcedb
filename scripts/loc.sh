#!/usr/bin/env bash
# Non-test line counts of the engine crate: every line of each file
# under crates/platform/src up to (not including) its `#[cfg(test)]`
# module, per file and in total. This is the number the simplicity
# issues and ROADMAP item 3's "shrinks by >= 2k" bar are stated in.
# Usage: ./scripts/loc.sh [src-dir]   (default: crates/platform/src)
set -euo pipefail
cd "$(dirname "$0")/.."
src="${1:-crates/platform/src}"

find "$src" -name '*.rs' | sort | while read -r f; do
    printf '%6d %s\n' "$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")" "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
