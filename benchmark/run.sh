#!/usr/bin/env bash
# Builds the benchmark and the policy_server it drives from this
# checkout's sources, then runs it with the given arguments from the
# repository root:
#
#   bash benchmark/run.sh --workload repro_sweep --seed 7 --seconds 20 --trace 0
#
# Cargo's output goes to stderr, so stdout carries only the benchmark's
# report, whose last line is the JSON verdict. The build honours
# CARGO_TARGET_DIR and defaults to benchmark/target. It is --locked: when
# the crates' dependencies change, benchmark/Cargo.lock must be updated
# on purpose (cargo generate-lockfile --offline --manifest-path
# benchmark/Cargo.toml) rather than rewritten by a run.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark" "$@"
