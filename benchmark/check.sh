#!/bin/sh
# Formats, lints, tests and smoke-runs the benchmark package. Touches
# nothing outside benchmark/ and needs no network.
set -eu
cd "$(dirname "$0")/.."
manifest="--manifest-path benchmark/Cargo.toml"
cargo fmt $manifest --check
cargo clippy $manifest --offline --all-targets -- -D warnings
cargo test $manifest --offline
# The same legs and layers on quick(8, 6)-sized corpora: proves every
# metric is produced; its numbers are not comparable with anything.
cargo run $manifest --offline --release --quiet -- run --smoke --seconds 1
cargo run $manifest --offline --release --quiet -- run --smoke --seconds 1 --trace 1
echo "benchmark/check.sh: all checks passed"
