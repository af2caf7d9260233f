#!/usr/bin/env bash
# Perf-baseline regression gate (DESIGN.md §5.4).
#
# Runs the JSON-emitting bench bins and compares their `metrics-v1`
# snapshots against the committed baselines at the repo root using
# `inca-analyze --gate`. The simulator is deterministic, so cycle-domain
# counters/gauges/histograms must reproduce EXACTLY; wall-clock
# throughput gauges (`*macs_per_s`, `*speedup*`) get generous relative
# tolerances and `threads` is ignored (see
# `inca_obs::analyze::baseline::default_rules`).
#
#   scripts/bench_gate.sh             # full gate: func + func_tiers + sched
#                                     #   + serve + dslam + spans + event +
#                                     #   timeline + cluster, plus the tier-1
#                                     #   MobileNet speedup floor (>= 4x) and
#                                     #   the event-engine fleet speedup floor
#                                     #   (>= 10x)
#   scripts/bench_gate.sh --quick     # deterministic bins only (func_tiers +
#                                     #   sched + serve + dslam + spans +
#                                     #   event + timeline + cluster): skips
#                                     #   perf_smoke, whose wall-clock
#                                     #   throughput needs a quiet machine
#   scripts/bench_gate.sh --refresh   # regenerate the committed baselines
#                                     #   (rerun after an intentional perf or
#                                     #   metrics change, then commit)
#   scripts/bench_gate.sh --selftest  # prove the gate trips on an injected
#                                     #   2x slowdown and passes on identity
#
# `event.fleet64.speedup` is the wall-clock ratio of two advance modes that
# BOTH run the same engine: when the engine itself gets faster (span
# commits, ISSUE 22: 25.2x -> ~20x) the busy cores cost both modes less
# and the ratio drifts down while each mode got quicker. A drift there
# after an engine change is expected, not a regression; the >= 10x floor
# is what is gated.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# name | committed baseline | bench bin
gates() {
    case "$1" in
        quick) printf '%s\n' \
            "func_tiers BENCH_func_tiers.json fig_func_tiers" \
            "sched BENCH_sched.json fig_sched_load" \
            "serve BENCH_serve.json fig_serve_load" \
            "dslam BENCH_dslam.json fig_dslam_mission" \
            "spans BENCH_spans.json spans" \
            "event BENCH_event.json fig_event_engine" \
            "timeline BENCH_timeline.json timeline" \
            "cluster BENCH_cluster.json fig_cluster" ;;
        *) printf '%s\n' \
            "func BENCH_func.json perf_smoke" \
            "func_tiers BENCH_func_tiers.json fig_func_tiers" \
            "sched BENCH_sched.json fig_sched_load" \
            "serve BENCH_serve.json fig_serve_load" \
            "dslam BENCH_dslam.json fig_dslam_mission" \
            "spans BENCH_spans.json spans" \
            "event BENCH_event.json fig_event_engine" \
            "timeline BENCH_timeline.json timeline" \
            "cluster BENCH_cluster.json fig_cluster" ;;
    esac
}

# The tiered-execution acceptance floor: Tier-1 must hold >= 4x over
# Tier-0 stepping on end-to-end MobileNet (DESIGN.md §5.6). Checked
# against the freshly measured snapshot, not the baseline, so a quiet
# machine regression is caught even if the 35% gauge tolerance isn't.
# Both tiers run one GEMM kernel, so the ratio is the interpreter
# overhead Tier-1 removes and nothing else: it measures 4.8-5.1x (it was
# 5.4x, floor 5x, while only Tier-1 had a blocked kernel).
check_tier_floor() { # perf_smoke.json -> exit 1 if below floor
    python3 - "$1" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
s = snap["gauges"]["mobilenet_v1_96x96.tier1_speedup"]
if s < 4.0:
    sys.exit(f"bench gate: tier-1 MobileNet speedup {s:.2f}x is below the 4x floor")
print(f"bench gate: tier-1 MobileNet speedup {s:.2f}x (floor 4x) ok")
EOF
}

# The event-engine acceptance floor: discrete-event advancement must
# hold >= 10x over cycle-box stepping on the mostly-idle 64-core fleet
# (DESIGN.md §5.8). Like the tier floor, checked against the freshly
# measured snapshot so a regression is caught even inside the generous
# wall-clock gauge tolerance. The skips counter must also be live — an
# armed set that never disarms (event mode silently ticking every core at
# every barrier) would keep outputs identical while erasing the entire
# point of the engine.
check_event_floor() { # fig_event_engine.json -> exit 1 if below floor
    python3 - "$1" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
s = snap["gauges"]["event.fleet64.speedup"]
skips = snap["counters"]["event.fleet64.skips"]
if skips == 0:
    sys.exit("bench gate: event engine skipped nothing on a mostly-idle "
             "fleet - the armed set never disarms")
if s < 10.0:
    sys.exit(f"bench gate: event-engine fleet speedup {s:.2f}x is below the 10x floor")
print(f"bench gate: event-engine fleet speedup {s:.2f}x (floor 10x), "
      f"{skips} ticks skipped ok")
EOF
}

echo "== bench gate: building release bins"
cargo build --release -p inca-bench --bins -q

run_bin() { # bin -> writes $tmp/<bin>.json
    if [ "$1" = "spans" ]; then
        # Per-request critical-path baseline: the spans-v1 snapshot of the
        # canonical serve scenario (`inca-analyze --spans`). Cycle-domain
        # counters compare exactly, so any drift in a quantile request's
        # queue/batch/reload/exec/preempted decomposition trips the gate.
        echo "== bench gate: running inca-analyze --spans --json"
        ./target/release/inca-analyze --spans --json > "$tmp/spans.json"
    elif [ "$1" = "timeline" ]; then
        # Cycle-domain timeline baseline: the metrics-v1 snapshot of the
        # canonical serve-timeline scenario (`inca-analyze --timeline`).
        # Everything here is cycle-domain and exact-match, including the
        # frame count and the recorder-tripped flag (0 without a spike).
        echo "== bench gate: running inca-analyze --timeline --json"
        ./target/release/inca-analyze --timeline --json > "$tmp/timeline.json"
    else
        echo "== bench gate: running $1 --json"
        "./target/release/$1" --json > "$tmp/$1.json"
    fi
}

case "$mode" in
    --refresh)
        while read -r _name baseline bin; do
            run_bin "$bin"
            cp "$tmp/$bin.json" "$baseline"
            echo "refreshed $baseline"
        done < <(gates full)
        echo "bench gate: baselines refreshed — review the diff and commit"
        ;;
    --selftest)
        # Fixture 1: a fresh perf_smoke snapshot, and a copy with every
        # throughput gauge halved — a deliberate 2x slowdown. The gate
        # must pass the identity comparison and fail the slowdown.
        run_bin perf_smoke
        python3 - "$tmp/perf_smoke.json" "$tmp/slow.json" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
for key in snap["gauges"]:
    if key.endswith("macs_per_s"):
        snap["gauges"][key] /= 2.0
json.dump(snap, open(sys.argv[2], "w"), separators=(",", ":"))
EOF
        ./target/release/inca-analyze --gate "$tmp/perf_smoke.json" "$tmp/perf_smoke.json"
        if ./target/release/inca-analyze --gate "$tmp/perf_smoke.json" "$tmp/slow.json"; then
            echo "bench gate selftest: FAILED — 2x slowdown was not flagged" >&2
            exit 1
        fi
        # Fixture 2: a fresh fig_serve_load snapshot with every hard-lane
        # p99 doubled — an injected serving-latency regression. Cycle-
        # domain counters are exact-match, so the gate must trip.
        run_bin fig_serve_load
        python3 - "$tmp/fig_serve_load.json" "$tmp/serve_slow.json" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
for key in snap["counters"]:
    if key.endswith("hard_p99"):
        snap["counters"][key] *= 2
json.dump(snap, open(sys.argv[2], "w"), separators=(",", ":"))
EOF
        ./target/release/inca-analyze --gate "$tmp/fig_serve_load.json" "$tmp/fig_serve_load.json"
        if ./target/release/inca-analyze --gate "$tmp/fig_serve_load.json" "$tmp/serve_slow.json"; then
            echo "bench gate selftest: FAILED — serve p99 slowdown was not flagged" >&2
            exit 1
        fi
        # Fixture 3: the perf_smoke snapshot with the tier-1 MobileNet
        # speedup dropped to 3.5x — below the 4x acceptance floor. The
        # explicit floor check must trip even though 3.5x might squeak
        # through the 35% relative gauge tolerance.
        python3 - "$tmp/perf_smoke.json" "$tmp/tier_slow.json" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
snap["gauges"]["mobilenet_v1_96x96.tier1_speedup"] = 3.5
json.dump(snap, open(sys.argv[2], "w"), separators=(",", ":"))
EOF
        check_tier_floor "$tmp/perf_smoke.json"
        if check_tier_floor "$tmp/tier_slow.json"; then
            echo "bench gate selftest: FAILED — sub-4x tier-1 speedup was not flagged" >&2
            exit 1
        fi
        # Fixture 4: a fresh fig_func_tiers snapshot with one output
        # digest corrupted and its divergence counter raised — an
        # injected tier-equivalence break. Counters compare exactly, so
        # the gate must trip.
        run_bin fig_func_tiers
        python3 - "$tmp/fig_func_tiers.json" "$tmp/tiers_broken.json" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
snap["counters"]["virtual-instruction.digest"] ^= 1
snap["counters"]["virtual-instruction.divergence"] = 1
json.dump(snap, open(sys.argv[2], "w"), separators=(",", ":"))
EOF
        ./target/release/inca-analyze --gate "$tmp/fig_func_tiers.json" "$tmp/fig_func_tiers.json"
        if ./target/release/inca-analyze --gate "$tmp/fig_func_tiers.json" "$tmp/tiers_broken.json"; then
            echo "bench gate selftest: FAILED — tier divergence was not flagged" >&2
            exit 1
        fi
        # Fixture 5: the spans snapshot with the hard lane's p99 queue
        # share regressed — queue cycles shifted into the p99 request's
        # decomposition and the aggregate share gauge raised. Both are
        # exact-match under the default rules, so the gate must trip.
        run_bin spans
        python3 - "$tmp/spans.json" "$tmp/spans_slow.json" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
c = snap["counters"]
c["spans.hard.p99.queue"] += c["spans.hard.p99.exec"] // 2
c["spans.hard.p99.exec"] -= c["spans.hard.p99.exec"] // 2
snap["gauges"]["spans.hard.queue_share"] = 0.5
json.dump(snap, open(sys.argv[2], "w"), separators=(",", ":"))
EOF
        ./target/release/inca-analyze --gate "$tmp/spans.json" "$tmp/spans.json"
        if ./target/release/inca-analyze --gate "$tmp/spans.json" "$tmp/spans_slow.json"; then
            echo "bench gate selftest: FAILED — spans queue-share regression was not flagged" >&2
            exit 1
        fi
        # Fixture 6: a fresh fig_event_engine snapshot with every skip
        # turned into a wake — the skips counter zeroed (every tick "ran")
        # and the fleet speedup collapsed to 1x, which is exactly what an
        # armed set that never disarms anything looks like. Both the
        # exact-match counters and the explicit floor must trip.
        run_bin fig_event_engine
        python3 - "$tmp/fig_event_engine.json" "$tmp/event_starved.json" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
c = snap["counters"]
c["event.fleet64.wakes"] += c["event.fleet64.skips"]
c["event.fleet64.skips"] = 0
snap["gauges"]["event.fleet64.speedup"] = 1.0
json.dump(snap, open(sys.argv[2], "w"), separators=(",", ":"))
EOF
        ./target/release/inca-analyze --gate "$tmp/fig_event_engine.json" "$tmp/fig_event_engine.json"
        check_event_floor "$tmp/fig_event_engine.json"
        if ./target/release/inca-analyze --gate "$tmp/fig_event_engine.json" "$tmp/event_starved.json"; then
            echo "bench gate selftest: FAILED — a never-disarming armed set was not flagged" >&2
            exit 1
        fi
        if check_event_floor "$tmp/event_starved.json"; then
            echo "bench gate selftest: FAILED — a zeroed skips counter passed the floor check" >&2
            exit 1
        fi
        # Fixture 7: the serve-timeline scenario run twice — quiet, and
        # with an injected hard-lane queue-depth spike. The always-armed
        # flight recorder must stay quiet on the former and trip on the
        # latter; `--inject-spike` also makes the CLI itself exit nonzero
        # if the recorder stays silent.
        run_bin timeline
        echo "== bench gate: running inca-analyze --timeline --inject-spike --json"
        ./target/release/inca-analyze --timeline --inject-spike --json > "$tmp/timeline_spike.json"
        ./target/release/inca-analyze --gate "$tmp/timeline.json" "$tmp/timeline.json"
        python3 - "$tmp/timeline.json" "$tmp/timeline_spike.json" <<'EOF'
import json, sys
quiet = json.load(open(sys.argv[1]))["counters"]
spike = json.load(open(sys.argv[2]))["counters"]
if quiet["timeline.recorder.tripped"] != 0:
    sys.exit("bench gate selftest: FAILED - quiet timeline run tripped the recorder")
if spike["timeline.recorder.tripped"] != 1:
    sys.exit("bench gate selftest: FAILED - injected queue-depth spike did not trip the recorder")
print(f"bench gate selftest: injected spike tripped the flight recorder "
      f"({spike['timeline.frames']} frames sampled) ok")
EOF
        # Fixture 8: a fresh fig_cluster snapshot with the weight-cache-
        # aware router's win erased — its reload count bumped past the
        # round-robin column and the hard-lane p99 doubled. Cycle-domain
        # counters compare exactly, so the gate must trip on both.
        run_bin fig_cluster
        python3 - "$tmp/fig_cluster.json" "$tmp/cluster_cold.json" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
c = snap["counters"]
c["cluster.wca.reloads"] = c["cluster.rr.reloads"] + 1
c["cluster.wca.hard_p99"] *= 2
json.dump(snap, open(sys.argv[2], "w"), separators=(",", ":"))
EOF
        ./target/release/inca-analyze --gate "$tmp/fig_cluster.json" "$tmp/fig_cluster.json"
        if ./target/release/inca-analyze --gate "$tmp/fig_cluster.json" "$tmp/cluster_cold.json"; then
            echo "bench gate selftest: FAILED — cluster routing regression was not flagged" >&2
            exit 1
        fi
        echo "bench gate selftest: ok (identity passes, injected regressions trip)"
        ;;
    full|--quick)
        [ "$mode" = "--quick" ] && sel=quick || sel=full
        fail=0
        while read -r name baseline bin; do
            if [ ! -f "$baseline" ]; then
                echo "bench gate: missing baseline $baseline (run scripts/bench_gate.sh --refresh)" >&2
                exit 1
            fi
            run_bin "$bin"
            ./target/release/inca-analyze --gate "$baseline" "$tmp/$bin.json" || fail=1
            if [ "$name" = "func" ]; then
                check_tier_floor "$tmp/$bin.json" || fail=1
            fi
            if [ "$name" = "event" ]; then
                check_event_floor "$tmp/$bin.json" || fail=1
            fi
        done < <(gates "$sel")
        if [ "$fail" -ne 0 ]; then
            echo "bench gate: REGRESSION — see findings above." >&2
            echo "  If the change is intentional: scripts/bench_gate.sh --refresh && git add BENCH_*.json" >&2
            exit 1
        fi
        echo "bench gate: all baselines hold"
        ;;
    *)
        echo "usage: scripts/bench_gate.sh [--quick|--refresh|--selftest]" >&2
        exit 2
        ;;
esac
