#!/usr/bin/env bash
# Structural smoke test of the perf-regression gate, wired into ctest as
# `perf.smoke`. Deliberately non-flaky: nothing here compares live timings
# against thresholds. It checks that
#   1. the micro harnesses emit valid "mobiweb-bench/1" JSON,
#   2. bench_diff.py passes a run against itself,
#   3. bench_diff.py FAILS when a regression is injected into a copy,
#   4. the tail gate works: an injected p99-only regression (means held
#      flat) fails, confidence-interval keys never gate, and baselines
#      recorded before the tail keys existed still compare cleanly,
#   5. the metric keys are still compatible with the checked-in baselines
#      (compared at a tolerance timing noise cannot trip).
# For an actual perf hunt, diff two real runs at the default tolerance:
#   scripts/bench_diff.py bench/baselines/micro_coding.json new.json
set -euo pipefail

ROOT=${MOBIWEB_REPO_ROOT:-$(cd "$(dirname "$0")/.." && pwd)}
CODING=${1:-$ROOT/build/bench/bench_micro_coding}
PIPELINE=${2:-$ROOT/build/bench/bench_micro_pipeline}
FLEET=${3:-$ROOT/build/bench/bench_fleet}
PROXY=${4:-$ROOT/build/bench/bench_proxy}
DIFF="$ROOT/scripts/bench_diff.py"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

"$CODING" --json="$TMP/coding.json" >/dev/null
"$PIPELINE" --json="$TMP/pipeline.json" >/dev/null
"$FLEET" --json="$TMP/fleet.json" >/dev/null
# Weak-connectivity path: per-session Markov fades, suspend/backoff, degraded
# termination. Deterministic for a fixed seed, so it gates like the clean run.
"$FLEET" --duty=0.2 --json="$TMP/fleet_duty.json" >/dev/null
# Edge proxy tier: the origin-duty x warm-hit grid through the proxied engine
# walk. Also deterministic for a fixed seed.
"$PROXY" --sessions=800 --json="$TMP/proxy.json" >/dev/null

# A run diffed against itself must pass at any tolerance.
python3 "$DIFF" --quiet --tolerance=0 "$TMP/coding.json" "$TMP/coding.json"
python3 "$DIFF" --quiet --tolerance=0 "$TMP/pipeline.json" "$TMP/pipeline.json"
python3 "$DIFF" --quiet --tolerance=0 "$TMP/fleet.json" "$TMP/fleet.json"
python3 "$DIFF" --quiet --tolerance=0 "$TMP/fleet_duty.json" "$TMP/fleet_duty.json"
python3 "$DIFF" --quiet --tolerance=0 "$TMP/proxy.json" "$TMP/proxy.json"

# Halve the first throughput metric: the gate must catch it.
python3 - "$TMP/coding.json" "$TMP/regressed.json" <<'EOF'
import json, sys
with open(sys.argv[1], encoding="utf-8") as f:
    run = json.load(f)
for key in sorted(run["metrics"]):
    if key.endswith(("mbps", "per_s", "per_hour")):
        run["metrics"][key] *= 0.5
        break
else:
    sys.exit("perf_smoke: no directional metric to perturb")
with open(sys.argv[2], "w", encoding="utf-8") as f:
    json.dump(run, f)
EOF
if python3 "$DIFF" --quiet "$TMP/coding.json" "$TMP/regressed.json"; then
  echo "perf_smoke: injected regression was not detected" >&2
  exit 1
fi

# Tail-aware gating: double every *_p99 session-time key while leaving the
# means untouched. The mean-only gate of old would wave this through; the
# tail gate must fail it.
python3 - "$TMP/fleet.json" "$TMP/tail_regressed.json" <<'EOF'
import json, sys
with open(sys.argv[1], encoding="utf-8") as f:
    run = json.load(f)
hit = 0
for key in run["metrics"]:
    if key.endswith("_p99"):
        run["metrics"][key] = run["metrics"][key] * 2.0 + 1.0
        hit += 1
if not hit:
    sys.exit("perf_smoke: no _p99 keys to perturb")
with open(sys.argv[2], "w", encoding="utf-8") as f:
    json.dump(run, f)
EOF
if python3 "$DIFF" --quiet "$TMP/fleet.json" "$TMP/tail_regressed.json"; then
  echo "perf_smoke: injected p99-only regression was not detected" >&2
  exit 1
fi

# Confidence half-widths are context, not gates: inflating every *_ci95 key
# must NOT fail the diff.
python3 - "$TMP/fleet.json" "$TMP/ci_inflated.json" <<'EOF'
import json, sys
with open(sys.argv[1], encoding="utf-8") as f:
    run = json.load(f)
for key in run["metrics"]:
    if key.endswith("_ci95"):
        run["metrics"][key] = run["metrics"][key] * 10.0 + 1.0
with open(sys.argv[2], "w", encoding="utf-8") as f:
    json.dump(run, f)
EOF
python3 "$DIFF" --quiet "$TMP/fleet.json" "$TMP/ci_inflated.json"

# Compatibility with pre-tail baselines: a run stripped of every tail key
# (as recorded before this gate existed) still passes against a full run —
# keys present on one side only never gate.
python3 - "$TMP/fleet.json" "$TMP/pre_tail.json" <<'EOF'
import json, sys
with open(sys.argv[1], encoding="utf-8") as f:
    run = json.load(f)
suffixes = ("_p50", "_p95", "_p99", "_p999", "_mean", "_ci95")
run["metrics"] = {k: v for k, v in run["metrics"].items()
                  if not k.endswith(suffixes)}
with open(sys.argv[2], "w", encoding="utf-8") as f:
    json.dump(run, f)
EOF
python3 "$DIFF" --quiet --tolerance=0 "$TMP/pre_tail.json" "$TMP/fleet.json"

# Baseline key compatibility (schema + key drift only, not timings).
python3 "$DIFF" --quiet --tolerance=1000 \
  "$ROOT/bench/baselines/micro_coding.json" "$TMP/coding.json"
python3 "$DIFF" --quiet --tolerance=1000 \
  "$ROOT/bench/baselines/micro_pipeline.json" "$TMP/pipeline.json"
python3 "$DIFF" --quiet --tolerance=1000 \
  "$ROOT/bench/baselines/fleet.json" "$TMP/fleet.json"
python3 "$DIFF" --quiet --tolerance=1000 \
  "$ROOT/bench/baselines/fleet_duty.json" "$TMP/fleet_duty.json"
python3 "$DIFF" --quiet --tolerance=1000 \
  "$ROOT/bench/baselines/proxy.json" "$TMP/proxy.json"

echo "perf_smoke: ok"
