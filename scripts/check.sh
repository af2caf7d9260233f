#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, full test suite.
# Run from anywhere; everything executes at the workspace root.
#
# Property-based suites (vendored proptest, pinned per-test seeds) run at
# a bounded case count so the whole gate stays under a couple of minutes;
# override for a deeper sweep. scripts/nightly.sh runs this gate at
#
#   INCA_PROP_CASES=512 scripts/check.sh
#
# and then the compiler's #[ignore]d slow cells, which nothing here runs.
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

echo "== no simulator crate reads or waits on a wall clock"
# Every result of the simulator is in virtual cycles; host time is
# measured from outside, by benchmark/ and the bench bins. No simulator
# crate waits on the host either: no timeout, no sleep.
if grep -rnwE 'Instant|SystemTime|Duration|sleep' crates/{isa,model,compiler,accel,runtime,serve,cluster,obs,dslam}/src; then
    echo "check.sh: a simulator crate reads or waits on the wall clock (see above)" >&2
    exit 1
fi

echo "== unsafe code only in the int8 kernels' vector dispatch"
# `inca-accel` denies `unsafe_code` and allows it on one function, the
# run-time choice of the AVX2 / AVX-512BW build of the GEMM and
# depthwise kernels (`func::kernels::run_upto`); the other eight
# simulator crates forbid it outright.
if grep -rnw 'unsafe' crates/{isa,model,compiler,accel,runtime,serve,cluster,obs,dslam}/src |
        grep -v '^crates/accel/src/func/kernels\.rs:'; then
    echo "check.sh: unsafe code outside crates/accel/src/func/kernels.rs (see above)" >&2
    exit 1
fi
for c in isa model compiler runtime serve cluster obs dslam; do
    if ! grep -qx '#!\[forbid(unsafe_code)\]' "crates/$c/src/lib.rs"; then
        echo "check.sh: crates/$c/src/lib.rs lost #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done

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

echo "== quickstart, scheduler, priority-inversion, serving, cluster, DSLAM and loop-closure examples"
cargo build --release --example quickstart --example scheduler --example priority_inversion \
    --example serve --example cluster --example dslam -q
# `cargo test` only compiles examples; running these three checks they
# succeed end to end (quickstart asserts interrupt transparency).
./target/release/examples/quickstart > /dev/null
./target/release/examples/scheduler > /dev/null
./target/release/examples/priority_inversion > /dev/null
./target/release/examples/serve > /dev/null
# Elastic scaling, work stealing and `run_to_idle` across four gateways.
./target/release/examples/cluster > /dev/null
# The paper's experiment end to end: two agents, FE preempting PR, both
# agents' engines sharing one price table per program.
./target/release/examples/dslam --small > /dev/null
# The loop-closure ablation: the only mission run with `loop_closure: false`.
cargo build --release -p inca-dslam --example loop_closure -q
./target/release/examples/loop_closure > /dev/null

echo "== fig_cluster at 500 000 requests (its WCA-beats-round-robin assert, long run)"
cargo build --release -p inca-bench --bin fig_cluster -q
./target/release/fig_cluster --requests 500000 > /dev/null

echo "== inca CLI (compile tiny, stats, disasm, run it interrupted under every strategy)"
# `inca run` is the one production reader of `Report::occupancy` (its Gantt);
# `inca disasm` prints `Instr::listing`, the one text form of an instruction.
cargo build --release --bin inca -q
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
./target/release/inca compile tiny -o "$tmp/t.bin" > /dev/null
./target/release/inca stats "$tmp/t.bin" > /dev/null
./target/release/inca disasm "$tmp/t.bin" --limit 40 > /dev/null
for s in vi lbl cpu none; do
    ./target/release/inca run "$tmp/t.bin" --interrupt-at 700000 --strategy "$s" > /dev/null
done

echo "== inca-analyze --timeline --export (timeseries-v1 is write-only: check its shape)"
# The root tests (tests/timeline.rs) check the shape of the spiked
# scenario's series only; this is the unspiked one, as the CLI writes it.
cargo build --release -p inca-bench --bin inca-analyze -q
./target/release/inca-analyze --timeline --export "$tmp/ts.json" > /dev/null
python3 - "$tmp/ts.json" <<'EOF'
import json, sys
ts = json.load(open(sys.argv[1]))
assert ts["schema"] == "inca-obs/timeseries-v1", ts["schema"]
n = len(ts["cycles"])
assert ts["frames"] == n, (ts["frames"], n)
bad = [k for k, v in ts["columns"].items() if len(v) != n]
assert not bad, f"columns not {n} frames long: {bad}"
print(f"timeseries-v1 export: {n} frames, {len(ts['columns'])} columns ok")
EOF

echo "== fig_serve_load traced at every request (its span ring must not overflow)"
cargo build --release -p inca-bench --bin fig_serve_load -q
./target/release/fig_serve_load --json --trace-sample 1 --rounds 128 > "$tmp/serve.json"
python3 - "$tmp/serve.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
assert counters["trace.dropped"] == 0, f"trace.dropped = {counters['trace.dropped']}"
print(f"fig_serve_load trace: {counters['trace.span_events']} span events, none dropped")
EOF

echo "== profile_network (per-layer/opcode table read off the cycle table)"
cargo build --release -p inca-bench --bin profile_network -q
./target/release/profile_network mobilenet --json > /dev/null

echo "== perf_smoke key set = BENCH_func.json key set (names only: the values are wall-clock)"
# The --quick bench gate skips perf_smoke, and the full gate's throughput
# gauges need a quiet host, so this is the step that notices a gauge
# added, renamed or dropped without its baseline.
cargo build --release -p inca-bench --bin perf_smoke -q
./target/release/perf_smoke --json 2> /dev/null > "$tmp/perf_smoke.json"
python3 - BENCH_func.json "$tmp/perf_smoke.json" <<'EOF'
import json, sys
def keys(path):
    doc = json.load(open(path))
    return {f"{part}.{k}" for part in ("counters", "gauges", "histograms") for k in doc[part]}
base, fresh = keys(sys.argv[1]), keys(sys.argv[2])
assert base == fresh, (
    f"only in BENCH_func.json: {sorted(base - fresh)}; only in perf_smoke: {sorted(fresh - base)}")
print(f"perf_smoke: {len(fresh)} keys, the same set as BENCH_func.json")
EOF

echo "== prog_size example (paper-scale compiles, VI pass next to lower+codegen)"
cargo build --release -p inca-compiler --example prog_size -q
./target/release/examples/prog_size

echo "== benchmark package (detached: own workspace and lock file; --quick)"
# `benchmark/` is outside the workspace, so nothing above compiles it. It
# is the frozen measurement surface: build it against this tree and run
# every workload once at 1/10 size — ledgers, resumed==solo, ops_failed.
# Building it may rewrite its lock file; the EXIT trap puts the committed
# one back, whether the run passes or fails.
cp benchmark/Cargo.lock "$tmp/benchmark.lock"
trap 'cp "$tmp/benchmark.lock" benchmark/Cargo.lock; rm -rf "$tmp"' EXIT
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --quick > "$tmp/quick.txt"

echo "== --quick sim_digest per workload = scripts/quick_digests.txt"
# The simulation is deterministic: a workload's digest, traced or not,
# moves only with a change that says so and updates the file.
if ! diff <(grep -v '^#' scripts/quick_digests.txt | sort) \
        <(awk '/^== / { w = $2 } / sim_digest / { print w, $NF }' "$tmp/quick.txt" | sort -u); then
    echo "check.sh: --quick sim_digest differs from scripts/quick_digests.txt (< committed, > run)" >&2
    exit 1
fi

if [ "${INCA_BENCH_GATE:-0}" != 0 ]; then
    echo "== bench gate (--quick)"
    scripts/bench_gate.sh --quick
fi

echo "check.sh: all green"
