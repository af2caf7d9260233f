#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, full test suite.
# Run from anywhere; everything executes at the workspace root.
#
# Property-based suites (vendored proptest, pinned per-test seeds) run at
# a bounded case count so the whole gate stays under a couple of minutes;
# override for a deeper sweep, e.g. nightly:
#
#   INCA_PROP_CASES=512 scripts/check.sh
#
# Set INCA_BENCH_GATE=1 to also run the perf-baseline regression gate
# (scripts/bench_gate.sh --quick: deterministic cycle-domain metrics vs
# the committed BENCH_*.json baselines).
set -euo pipefail
cd "$(dirname "$0")/.."

: "${INCA_PROP_CASES:=48}"
export INCA_PROP_CASES

# The event-engine differential proptests (crates/accel/tests/
# event_props.rs) run whole multi-core sims per case, so they get their
# own, lower pin; they fall back to INCA_PROP_CASES when unset.
: "${INCA_EVENT_PROP_CASES:=24}"
export INCA_EVENT_PROP_CASES

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace, INCA_PROP_CASES=${INCA_PROP_CASES})"
cargo test --workspace -q

echo "== cargo doc (inca crates, no deps, warnings are errors)"
# The vendored stub crates are out of scope for the doc gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q -p inca \
    -p inca-isa -p inca-obs -p inca-model -p inca-compiler \
    -p inca-accel -p inca-runtime -p inca-serve -p inca-cluster -p inca-dslam \
    -p inca-bench

echo "== code lines and public setters per crate (scripts/loc.sh)"
scripts/loc.sh

echo "== serving example (deterministic frontend)"
cargo build --release --example serve -q
./target/release/examples/serve > /dev/null

echo "== prog_size example (paper-scale compiles, VI pass next to lower+codegen)"
cargo build --release -p inca-compiler --example prog_size -q
./target/release/examples/prog_size

echo "== benchmark package (detached: own workspace and lock file; --quick)"
# `benchmark/` is outside the workspace, so nothing above compiles it. It
# is the frozen measurement surface: build it against this tree and run
# every workload once at 1/10 size — ledgers, resumed==solo, ops_failed.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --quick > /dev/null

if [ "${INCA_BENCH_GATE:-0}" != 0 ]; then
    echo "== bench gate (--quick)"
    scripts/bench_gate.sh --quick
fi

echo "check.sh: all green"
