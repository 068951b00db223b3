#!/bin/sh
# Build, test, and regenerate every table/figure into results/.
# Usage: tools/run_all.sh [--filter REGEX] [IDP_REQUESTS] [IDP_THREADS]
#
#   --filter REGEX   run only the bench binaries whose name matches
#                    REGEX (grep -E syntax), e.g. --filter 'fig4'.
#
# IDP_THREADS (2nd positional or inherited env) is passed through to
# every bench binary: it sets the sweep engine's worker count
# (default: all hardware threads; 1 = the exact serial path). Results
# are bit-identical at any thread count. IDP_TRACE / IDP_TRACE_SAMPLE
# / IDP_LOG are likewise inherited by the benches, so
# `IDP_TRACE=1 tools/run_all.sh --filter fig4` produces traced runs.
#
# Every bench runs under the runtime invariant checker, which is on by
# default (IDP_VERIFY=0 opts out; see docs/verification.md).
# tools/verify_all.sh runs the full audit without the perf gates.
#
# Every BENCH_*.json report the benches refresh is then checked against
# the gate table in tools/bench_check.py, the same gates CI applies; the
# script exits non-zero if any gate fails.
set -e
cd "$(dirname "$0")/.."

FILTER=''
if [ "$1" = "--filter" ]; then
    if [ -z "$2" ]; then
        echo "run_all.sh: --filter needs a regex" >&2
        exit 2
    fi
    FILTER="$2"
    shift 2
fi
case "$1" in
    -*)
        echo "run_all.sh: unknown option '$1'" >&2
        exit 2
        ;;
esac

# Prefer Ninja when available, fall back to the default generator
# (the tier-1 verify line uses plain Make; both must work).
if [ ! -f build/CMakeCache.txt ]; then
    if command -v ninja >/dev/null 2>&1; then
        cmake -B build -G Ninja
    else
        cmake -B build
    fi
fi
cmake --build build -j "$(nproc 2>/dev/null || echo 2)"
# Tracing and log-level overrides must not leak into the test suite:
# the golden-determinism tests pin their own environment.
env -u IDP_TRACE -u IDP_TRACE_SAMPLE -u IDP_LOG \
    ctest --test-dir build --output-on-failure

# Scale/thread overrides apply to the bench runs only — exporting them
# before ctest would perturb env-sensitive tests (e.g. BenchScale).
[ -n "$1" ] && export IDP_REQUESTS="$1"
[ -n "$2" ] && export IDP_THREADS="$2"

mkdir -p results
# Reports newer than this marker were refreshed by this run.
: > results/.bench_start
ran=0
for b in build/bench/*; do
    name=$(basename "$b")
    if [ -n "$FILTER" ] && ! echo "$name" | grep -Eq "$FILTER"; then
        continue
    fi
    ran=$((ran + 1))
    echo "== $name (IDP_THREADS=${IDP_THREADS:-auto} IDP_TRACE=${IDP_TRACE:-0}) =="
    "$b" | tee "results/$name.txt"
done
if [ "$ran" -eq 0 ]; then
    echo "run_all.sh: no bench matched --filter '$FILTER'" >&2
    exit 1
fi
echo "All outputs written to results/."
# Benches with a machine-readable report refresh BENCH_<name>.json in
# the repo root, or in $IDP_BENCH_OUT when set. See docs/performance.md.
refreshed=$(find "${IDP_BENCH_OUT:-.}" -maxdepth 1 -name 'BENCH_*.json' \
    -newer results/.bench_start | sort)
if [ -n "$refreshed" ]; then
    echo "Perf trajectory refreshed:" $refreshed
    tools/bench_check.py $refreshed
fi
