#!/usr/bin/env bash
# Build the release `fairrank` binary and the benchmark harness from
# source, then run one benchmark workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Build output goes to
# $CARGO_TARGET_DIR (default `.bench_build`); cargo's progress goes to
# stderr so the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
    echo "perfbench: run from a fairrank checkout (Cargo.toml and crates/ missing)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin fairrank >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --fairrank "$CARGO_TARGET_DIR/release/fairrank" "$@"
