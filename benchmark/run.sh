#!/usr/bin/env bash
# Builds and runs the reference benchmark from the repository root:
#   bash benchmark/run.sh [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>] [--aa]
# `--trace 1` selects the trace binary (per-layer metrics, span files);
# everything else goes to the end-to-end binary, which has no tracing
# compiled in. Build output goes to stderr so stdout stays the result.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=bench
prev=
for arg in "$@"; do
  if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then bin=trace; fi
  prev=$arg
done
target=${CARGO_TARGET_DIR:-target}
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
  --target-dir "$target" --bin "$bin" >&2
exec "$target/release/$bin" "$@"
