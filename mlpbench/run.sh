#!/usr/bin/env bash
# Builds the benchmark and the mlp-serve daemon from source, then runs
# the benchmark with the given arguments. Run from the checkout root:
#   bash mlpbench/run.sh --workload sweep-epoch --seed 1 --seconds 10 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path mlpbench/Cargo.toml >&2
cargo build --release --quiet -p mlp-serve --bin mlp-serve >&2
exec "$CARGO_TARGET_DIR/release/mlpbench" "$@"
