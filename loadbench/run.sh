#!/usr/bin/env bash
# Builds the `chatiyp` server and the load generator from source, then
# runs one benchmark:
#
#   bash loadbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Both binaries are built into $CARGO_TARGET_DIR (default: target/ at the
# repository root); logs, spans and reports go to loadbench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# loadbench is a workspace of its own, so without a shared target
# directory cargo would build it under loadbench/target/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet --bin chatiyp >&2
cargo build --release --offline --quiet --manifest-path loadbench/Cargo.toml >&2
"$target/release/loadbench" --server "$target/release/chatiyp" --out loadbench/out "$@" &
bench=$!
# Stopped by a signal: stop the servers the load generator started, then
# the generator itself, before exiting.
trap 'pkill -TERM -P "$bench" || true; kill -TERM "$bench" 2>/dev/null || true; wait "$bench" || true; exit 143' TERM INT HUP
wait "$bench"
