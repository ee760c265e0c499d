#!/usr/bin/env bash
# The repo's yardstick: builds the benchmark package and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--repeat 2]
#       the full set: every workload untraced, then the ledger and a
#       traced re-run of every workload; writes benchmark/out/report.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is its JSON result
#
# See README.md beside this script.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"

# Cargo's chatter goes to stderr so that stdout ends with the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2

exec "${CARGO_TARGET_DIR:-$here/target}/release/cso-benchmark" --out "$here/out" "$@"
