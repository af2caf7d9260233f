#!/usr/bin/env bash
# Nightly gate: what the per-change gate (scripts/check.sh) leaves out
# for time. Run from anywhere; everything executes at the workspace root.
#
#   scripts/nightly.sh
#
# 1. The whole of scripts/check.sh as its deep sweep: every property
#    suite at INCA_PROP_CASES=512 (the event-engine suites keep their own
#    INCA_EVENT_PROP_CASES pin unless it is set).
# 2. The compiler's #[ignore]d cells, in release: the quadratic reference
#    liveness on GeM/ResNet101 and MobileNetV1
#    (vi::indexed_liveness_matches_reference_on_slow_cells, ~6 min).
set -euo pipefail
cd "$(dirname "$0")/.."

INCA_PROP_CASES="${INCA_PROP_CASES:-512}" scripts/check.sh

echo "== inca-compiler ignored cells (release)"
cargo test --release -p inca-compiler -- --ignored
