#!/usr/bin/env bash
# End-to-end, per-layer benchmark of FEAST (bench/e2e/README.md).
#
#   bash bench/e2e/run.sh [--workload NAME] [--seed S] [--trace [0|1]]
#                         [--out DIR] [--seconds 15]
#
# Builds the benchmark from source into ${CARGO_TARGET_DIR:-.bench_build}/e2e,
# then runs each workload in its own process, so peak RSS, thread pools and
# thread-local arenas never carry over from one workload to the next.
# With --workload, runs that one workload; the last line of output is its
# result JSON.  Without, runs all four and also writes each result and the
# combined results.json to --out (default: <build dir>/results).
#
# Each workload does a fixed amount of work, sized to measure about 15 s
# untraced on the reference machine.  --seconds states that length, as
# BENCHMARK.json's run_seconds does; it accepts only 15.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
cd "$root"

workload=""
seed=1
trace=0
out=""
while (($#)); do
  case $1 in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds)
      if [[ ${2:-} != 15 ]]; then
        echo "run.sh: the work is fixed at about 15 s; --seconds must be 15" >&2
        exit 2
      fi
      shift 2 ;;
    --trace)
      if [[ ${2:-} == 0 || ${2:-} == 1 ]]; then trace=$2; shift 2; else trace=1; shift; fi ;;
    --out) out=$2; shift 2 ;;
    *) echo "run.sh: unknown option '$1'" >&2; exit 2 ;;
  esac
done

target=${CARGO_TARGET_DIR:-.bench_build}
build="$target/e2e"
mkdir -p "$target"
{
  # One build at a time per checkout; later runs find it up to date (once
  # configured, the build step reconfigures when a CMakeLists.txt changes).
  flock 9
  if [[ ! -x $build/feast_e2e ]]; then
    cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
  fi
  jobs=$(nproc)
  cmake --build "$build" --target feast_e2e -j "$((jobs < 4 ? jobs : 4))" >&2
} 9>"$target/e2e.lock"

bin="$build/feast_e2e"
args=(--seed "$seed" --trace "$trace" --work-dir "$target/e2e-work")
status=0
# Never exec: a fresh child process starts with no reaped-children usage,
# while this shell's includes the compilers of the build above.
if [[ -n $workload ]]; then
  "$bin" --workload "$workload" "${args[@]}" ${out:+--out "$out"} || status=$?
  exit "$status"
fi

out=${out:-$build/results}
mkdir -p "$out"
# results.json maps each workload to its full results file (metrics,
# notes, layer table), or null when the run produced none.
combined="{"
sep=""
for w in cells-slicing sched-replay campaign-isolated serve-mixed; do
  echo "== $w"
  file="$out/$w.trace$trace.json"
  rm -f "$file"
  "$bin" --workload "$w" "${args[@]}" --out "$out" || status=1
  combined+="$sep\"$w\": $(cat "$file" 2>/dev/null || echo null)"
  sep=", "
done
echo "$combined}" >"$out/results.json"
echo "results: $out/results.json"
exit "$status"
