#!/usr/bin/env bash
# Build the program and the benchmark from source, then run one benchmark
# invocation:
#
#   bash perfbench/run.sh --workload table4|serve-hot|serve-feedback \
#        --seed N --seconds S --trace 0|1
#
# Run from the repository root. Both builds share one target directory
# (CARGO_TARGET_DIR, default .bench_build). Build output goes to stderr;
# the last line of stdout is the result object.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# The server binary comes from the repository's own workspace and profile.
cargo build --release --offline --quiet -p esp-serve --bin esp-serve 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2

# Provenance: the source revision when run from a git work tree.
rev=none
if [ -e .git ]; then
    rev="$(git rev-parse --short=12 HEAD 2>/dev/null || echo none)"
fi
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/esp-serve" \
    --rustc "$(rustc --version)" \
    --git-rev "$rev" \
    "$@"
