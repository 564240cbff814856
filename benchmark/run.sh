#!/usr/bin/env bash
# The repo's benchmark: build the harness in release mode, then run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
#   benchmark/run.sh [--seed N] [--quick] [--trace] [--repeat-check]  every workload, each in its own process
#
# Run from the repository root. Everything is read and written inside the
# checkout: build output under $CARGO_TARGET_DIR (default target/benchmark),
# results under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target/benchmark}"

# The build log goes to stderr: stdout ends with the result line.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

exec "$target/release/rpr-benchmark" --out "$here/out" "$@"
