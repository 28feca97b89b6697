#!/usr/bin/env bash
# Builds ringd/ringctl and the benchmark from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash crates/bench/src/bin/ringbench/run.sh --workload ring64 --seed 1
#
# Both builds share one target directory (CARGO_TARGET_DIR, else
# ./target), so ringd and ringctl end up next to the ringbench binary,
# where it looks for them.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/server || ! -d crates/system ]]; then
    echo "ringbench: run from the root of an uncorq checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet -p ring-server --bin ringd --bin ringctl
cargo build --release --quiet --manifest-path crates/bench/src/bin/ringbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/ringbench" "$@"
