#!/usr/bin/env bash
# The benchmark's one command.
#
#   run.sh                       every workload, tracing off; prints every
#                                end-to-end metric by name and checks outputs
#   run.sh --traced              every workload traced: the per-layer tables,
#                                spans written under benchmark/out/
#   run.sh --selfcheck           two sets of three whole untraced benchmarks,
#                                their medians compared
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                                one run; the last line is the result object
#
# Builds only when the binaries are missing or older than a source file —
# run build.sh yourself beforehand to keep compile heat out of the numbers.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/streammine-benchmark"
worker="$target/release/bench_worker"

stale() {
  [[ ! -x "$bin" || ! -x "$worker" ]] && return 0
  [[ -n "$(find "$here/src" "$here/Cargo.toml" "$here/../crates" "$here/../src" "$here/../vendor" \
             -newer "$bin" -type f \( -name '*.rs' -o -name 'Cargo.toml' \) -print -quit)" ]]
}

if stale; then
  echo "run.sh: building first (numbers of this run are not quiet)" >&2
  bash "$here/build.sh" >&2
  # Let the compile's write-back finish before anything is timed.
  sync
  sleep 5
fi
release="$(cd "$target/release" && pwd)"
exec "$release/streammine-benchmark" --worker-bin "$release/bench_worker" --out-dir "$here/out" "$@"
