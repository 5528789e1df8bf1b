#!/usr/bin/env bash
# Non-test lines per crate and in total: every `crates/*/src/**/*.rs` file
# counted up to (not including) its first `#[cfg(test)]` line. This is the
# size figure simplicity changes report before and after.
#
# Usage: scripts/nontest-lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
  crate=$(basename "$dir")
  [[ -d "$dir/src" ]] || continue
  n=0
  while IFS= read -r -d '' f; do
    lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    n=$((n + lines))
  done < <(find "$dir/src" -name '*.rs' -print0)
  printf '%-12s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
