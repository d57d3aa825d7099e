#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite, then smoke
# the engine-comparison micro-benchmark (which asserts that the literal
# Fig. 1/2 implementations and the benefit engine return identical
# solutions) and the anytime bench (which asserts the deterministic budget
# axes yield monotone quality). Fails fast: the first failing stage stops the run with a named
# error so CI logs point at the broken stage directly.
#
# Usage: scripts/check.sh [extra cmake args...]
#   BUILD_DIR  build directory (default: build)
#   SCWSC_BENCH_SCALE  bench scale for the smoke runs (default: 0.02)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
JOBS=$(nproc 2>/dev/null || echo 2)

fail() { echo "check.sh: FAILED at stage: $1" >&2; exit 1; }

cmake -B "$BUILD_DIR" -S . "$@" || fail "configure"
cmake --build "$BUILD_DIR" -j"$JOBS" || fail "build"
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$JOBS") || fail "tests"

# Registry coverage: every algorithm entry point (Result<T> Run*/Solve*
# declared in a src header outside src/api) must be called from a registry
# adapter, so all algorithms stay invocable by name. Internal sub-steps
# that are deliberately not solvers go on the allowlist. src/serve sits
# ABOVE the registry (its RunBatch dispatches through it), so it is no
# more an algorithm entry point than src/api itself.
REGISTRY_ALLOWLIST="SolveLp SolveScwscRelaxation"
entry_points=$(grep -rhoE 'Result<[^;]*> (Run|Solve)[A-Za-z0-9]*\(' \
                 src --include='*.h' --exclude-dir=api --exclude-dir=serve \
               | grep -oE '(Run|Solve)[A-Za-z0-9]*\($' \
               | tr -d '(' | sort -u)
[ -n "$entry_points" ] || fail "registry coverage (no entry points found)"
for fn in $entry_points; do
  case " $REGISTRY_ALLOWLIST " in *" $fn "*) continue ;; esac
  grep -q "\b$fn\b" src/api/*.cc \
    || { echo "check.sh: '$fn' is not reachable through the solver" \
              "registry (src/api); register it or allowlist it" >&2
         fail "registry coverage"; }
done

# CLI smoke: the registry self-registration must survive linking (static
# registrars are prone to dead stripping).
list=$("$BUILD_DIR"/examples/scwsc_cli --list-solvers) || fail "cli smoke"
for name in cwsc opt-cwsc opt-cmc exact hcwsc hcmc lp-rounding; do
  echo "$list" | grep -q "^$name " || {
    echo "check.sh: solver '$name' missing from --list-solvers" >&2
    fail "cli smoke"; }
done

# Machine-readable solver list: --list-solvers --json emits the OptionsSpec
# tables as one JSON document (the same serve::SolverListToJson the socket
# server's list_solvers answers with), so tooling never scrapes the text.
"$BUILD_DIR"/examples/scwsc_cli --list-solvers --json \
  > "$BUILD_DIR"/solvers.json || fail "cli smoke (--json)"
python3 -m json.tool "$BUILD_DIR"/solvers.json > /dev/null \
  || fail "cli smoke (--json well-formed)"
python3 - "$BUILD_DIR"/solvers.json <<'EOF' || fail "cli smoke (--json contents)"
import json, sys
solvers = json.load(open(sys.argv[1]))["solvers"]
names = {s["name"] for s in solvers}
assert {"cwsc", "opt-cwsc", "exact"} <= names, names
for s in solvers:
    for option in s["options"]:
        assert {"name", "type", "required"} <= option.keys(), option
EOF

# Observability smoke: a real solve with tracing + metrics enabled must
# produce well-formed JSON (the trace loads in Perfetto / chrome://tracing).
printf 'Region,Product,Cost\nEast,Widget,3\nEast,Gadget,5\nWest,Widget,2\nWest,Gadget,4\nNorth,Widget,1\nNorth,Gadget,6\nSouth,Widget,2\nSouth,Gadget,3\n' \
  > "$BUILD_DIR"/obs_smoke.csv
"$BUILD_DIR"/examples/scwsc_cli --input "$BUILD_DIR"/obs_smoke.csv \
  --measure Cost --solver opt-cwsc --k 4 --coverage 0.5 \
  --trace-out "$BUILD_DIR"/trace.json \
  --metrics-out "$BUILD_DIR"/metrics.json || fail "observability smoke (solve)"
python3 -m json.tool "$BUILD_DIR"/trace.json > /dev/null \
  || fail "observability smoke (trace JSON)"
python3 -m json.tool "$BUILD_DIR"/metrics.json > /dev/null \
  || fail "observability smoke (metrics JSON)"

# Serve smoke: a 21-job v2 batch through the SolveScheduler must produce a
# well-formed report with zero failures and visible result-cache hits (the
# repeats are deterministic duplicates, so misses-only means the cache or
# its keys broke). The unknown root and job keys must come
# back under the report's "forward"; the one certifying job, and no other,
# must carry a lower bound at most its cost (its cwsc twin without certify
# is a separate cache entry).
cat > "$BUILD_DIR"/serve_jobs.json <<'EOF'
{"version": 2, "run_tag": "serve-smoke",
 "jobs": [
  {"solver": "cwsc", "k": 3, "coverage": 0.5, "label": "warm", "repeat": 8},
  {"solver": "opt-cwsc", "k": 3, "coverage": 0.5, "repeat": 6},
  {"solver": "CMC", "k": 3, "coverage": 0.5, "options": {"b": 2}, "repeat": 4},
  {"solver": "greedy-max-coverage", "k": 4, "coverage": 0.9, "priority": 2,
   "ticket": 17},
  {"solver": "exact", "k": 3, "coverage": 0.5, "deadline_ms": 30000},
  {"solver": "cwsc", "k": 3, "coverage": 0.5, "label": "certified",
   "certify": true}
]}
EOF
"$BUILD_DIR"/examples/scwsc_cli --input "$BUILD_DIR"/obs_smoke.csv \
  --measure Cost --batch "$BUILD_DIR"/serve_jobs.json \
  --batch-out "$BUILD_DIR"/batch_results.json || fail "serve smoke (batch)"
python3 -m json.tool "$BUILD_DIR"/batch_results.json > /dev/null \
  || fail "serve smoke (report JSON)"
python3 - "$BUILD_DIR"/batch_results.json <<'EOF' || fail "serve smoke (report contents)"
import json, sys
report = json.load(open(sys.argv[1]))
agg = report["aggregate"]
assert agg["total_jobs"] == 21, agg
assert agg["failed"] == 0, agg
assert agg["result_cache_hits"] > 0, agg
forward = report.get("forward", {})
assert forward.get("run_tag") == "serve-smoke", forward
assert forward.get("jobs[3].ticket") == 17, forward
certified = [job for job in report["jobs"] if job["label"] == "certified"]
assert len(certified) == 1, certified
job = certified[0]
# 1e-9: rounding slack in the sum of the scaled prices.
assert job["lower_bound"] <= job["total_cost"] * (1 + 1e-9), job
assert job["certified_ratio"] >= 1 - 1e-9, job
for job in report["jobs"]:
    if job["label"] != "certified":
        assert "lower_bound" not in job, job
        assert "certified_ratio" not in job, job
EOF

# Batch negative smoke: a missing jobs file must surface as a typed error
# on stderr and a non-zero exit — not a crash, not a silent empty report.
if "$BUILD_DIR"/examples/scwsc_cli --input "$BUILD_DIR"/obs_smoke.csv \
     --measure Cost --batch "$BUILD_DIR"/no_such_jobs.json \
     --batch-out "$BUILD_DIR"/unused.json 2> "$BUILD_DIR"/batch_err.txt; then
  fail "batch negative smoke (missing jobs file exited 0)"
fi
grep -q "cannot open" "$BUILD_DIR"/batch_err.txt \
  || fail "batch negative smoke (expected a typed NotFound message)"

# Wire version smoke: a batch file without "version": 2 is refused with a
# message naming version 2 and a non-zero exit; no v1 fallback exists.
printf '{"jobs": [{"solver": "cwsc", "k": 3, "coverage": 0.5}]}\n' \
  > "$BUILD_DIR"/versionless_jobs.json
if "$BUILD_DIR"/examples/scwsc_cli --input "$BUILD_DIR"/obs_smoke.csv \
     --measure Cost --batch "$BUILD_DIR"/versionless_jobs.json \
     --batch-out "$BUILD_DIR"/unused.json 2> "$BUILD_DIR"/batch_err.txt; then
  fail "wire version smoke (versionless batch file exited 0)"
fi
grep -q "version 2" "$BUILD_DIR"/batch_err.txt \
  || fail "wire version smoke (expected an error naming version 2)"

# Chaos smoke: the same batch under a seeded fault storm. Each job runs
# once, so injected failures surface in the report. The CLI must exit 0 or
# 1 (never crash), the report must account for every job, and every failed
# job must be an Internal error naming an injected fault, so a genuine
# failure cannot hide in the storm.
cat > "$BUILD_DIR"/serve_chaos_jobs.json <<'EOF'
{"version": 2,
 "faults": {"seed": 7, "solver_delay_ms": 1,
            "points": {"solver_error": 0.3, "solver_throw": 0.1,
                       "solver_delay": 0.2, "result_cache_corrupt": 0.5}},
 "jobs": [
  {"solver": "cwsc", "k": 3, "coverage": 0.5, "label": "storm", "repeat": 8},
  {"solver": "CMC", "k": 3, "coverage": 0.5, "options": {"b": 2}, "repeat": 4},
  {"solver": "greedy-wsc", "k": 4, "coverage": 0.6, "repeat": 4}
]}
EOF
chaos_rc=0
"$BUILD_DIR"/examples/scwsc_cli --input "$BUILD_DIR"/obs_smoke.csv \
  --measure Cost --batch "$BUILD_DIR"/serve_chaos_jobs.json \
  --batch-out "$BUILD_DIR"/chaos_results.json \
  || chaos_rc=$?
[ "$chaos_rc" -le 1 ] || fail "chaos smoke (CLI exited $chaos_rc)"
python3 - "$BUILD_DIR"/chaos_results.json <<'EOF' || fail "chaos smoke (report contents)"
import json, sys
report = json.load(open(sys.argv[1]))
agg = report["aggregate"]
assert agg["total_jobs"] == 16, agg
assert agg["succeeded"] + agg["failed"] == agg["total_jobs"], agg
assert len(report["jobs"]) == agg["total_jobs"], len(report["jobs"])
for job in report["jobs"]:
    if job["ok"]:
        continue
    error = job["error"]
    assert error["code"] == "Internal", job
    assert "injected fault" in error["message"], job
EOF

# Telemetry smoke: the same batch with the continuous-telemetry pump on —
# an "slo" object with a deliberately untenable latency rule plus CLI
# --telemetry-out/--slo flags. Every JSONL line must parse, the Prometheus
# exposition must exist, the violation must auto-dump the scheduler's SLO
# history as a trace that chrome://tracing would load and that holds at
# least one serve.run span, and the aggregate must count the violations.
cat > "$BUILD_DIR"/serve_slo_jobs.json <<'EOF'
{"version": 2,
 "slo": {"rules": ["p99_latency_ms<=0.001"], "interval_ms": 25},
 "jobs": [
  {"solver": "cwsc", "k": 3, "coverage": 0.5, "label": "slo", "repeat": 8},
  {"solver": "opt-cwsc", "k": 3, "coverage": 0.5, "repeat": 6},
  {"solver": "CMC", "k": 3, "coverage": 0.5, "options": {"b": 2}, "repeat": 4}
]}
EOF
"$BUILD_DIR"/examples/scwsc_cli --input "$BUILD_DIR"/obs_smoke.csv \
  --measure Cost --batch "$BUILD_DIR"/serve_slo_jobs.json \
  --batch-out "$BUILD_DIR"/slo_results.json \
  --telemetry-out "$BUILD_DIR"/telemetry.jsonl \
  --slo "error_rate<=0.5" || fail "telemetry smoke (batch)"
python3 - "$BUILD_DIR"/telemetry.jsonl <<'EOF' || fail "telemetry smoke (JSONL)"
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert lines, "telemetry JSONL is empty"
for line in lines:
    for key in ("tick", "counters", "gauges", "quantiles", "slo"):
        assert key in line, (key, line)
assert lines[-1]["slo"]["violations_total"] >= 1, lines[-1]["slo"]
EOF
[ -s "$BUILD_DIR"/telemetry.jsonl.prom ] || fail "telemetry smoke (prom)"
python3 -m json.tool "$BUILD_DIR"/telemetry.jsonl.slo_trace.json > /dev/null \
  || fail "telemetry smoke (SLO trace dump)"
python3 - "$BUILD_DIR"/telemetry.jsonl.slo_trace.json <<'EOF' || fail "telemetry smoke (SLO trace content)"
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
runs = [e for e in events if e.get("name") == "serve.run"]
assert runs, "the SLO dump holds no serve.run span"
EOF
python3 - "$BUILD_DIR"/slo_results.json <<'EOF' || fail "telemetry smoke (aggregate)"
import json, sys
report = json.load(open(sys.argv[1]))
assert report["aggregate"]["slo_violations"] >= 1, report["aggregate"]
EOF

SCWSC_BENCH_SCALE=${SCWSC_BENCH_SCALE:-0.02} \
  "$BUILD_DIR"/bench/micro_core --engine-compare \
  --out="$BUILD_DIR"/BENCH_core.json || fail "engine smoke"

SCWSC_BENCH_SCALE=${SCWSC_BENCH_SCALE:-0.02} \
  "$BUILD_DIR"/bench/anytime_quality \
  --out="$BUILD_DIR"/BENCH_anytime.json || fail "anytime smoke"

# Serve throughput: asserts >= 3x jobs/sec over a serial loop on a warm
# cache and that scheduled solutions are identical to serial execution.
SCWSC_BENCH_SCALE=${SCWSC_BENCH_SCALE:-0.02} \
  "$BUILD_DIR"/bench/serve_throughput "$BUILD_DIR"/BENCH_serve.json \
  || fail "serve throughput smoke"

# Serve chaos soak: open-loop fault storm through the scheduler. The bench
# itself gates on completion, failed jobs equal to the fired error and
# throw faults, zero corrupt results served and success p99; re-validate
# the report JSON here.
SCWSC_BENCH_SCALE=${SCWSC_BENCH_SCALE:-0.02} \
  "$BUILD_DIR"/bench/serve_chaos "$BUILD_DIR"/BENCH_chaos.json \
  || fail "serve chaos smoke"
python3 - "$BUILD_DIR"/BENCH_chaos.json <<'EOF' || fail "serve chaos smoke (report)"
import json, sys
report = json.load(open(sys.argv[1]))
assert report["pass"] is True, report["gates"]
assert all(report["gates"].values()), report["gates"]
EOF

# Serve soak: open-loop Poisson arrivals from three weighted tenants with
# live snapshot deltas. The bench itself gates on bit-identity of every
# delta-applied version vs a from-scratch rebuild, zero tenant starvation,
# p99 and, once the jobs are done, no published version alive but the head;
# re-validate the report JSON here. The release gate is named, so renaming
# it cannot slip past all().
SCWSC_BENCH_SCALE=${SCWSC_BENCH_SCALE:-0.02} \
  "$BUILD_DIR"/bench/serve_soak "$BUILD_DIR"/BENCH_serve_soak.json \
  || fail "serve soak smoke"
python3 - "$BUILD_DIR"/BENCH_serve_soak.json <<'EOF' || fail "serve soak smoke (report)"
import json, sys
report = json.load(open(sys.argv[1]))
assert all(report["gates"].values()), report["gates"]
assert report["gates"].get("g4_replaced_versions_released") is True, report["gates"]
for tenant in report["tenants"].values():
    assert tenant["succeeded"] > 0, report["tenants"]
EOF

echo "check.sh: build, tests, observability, serve, chaos, telemetry, soak, engine and anytime smokes all green"
