#!/usr/bin/env bash
# Builds the benchmark and its worker binary (release, offline). Kept apart
# from run.sh so that a run never shares the machine with a compile: build
# first, then run.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_NET_OFFLINE=true
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
