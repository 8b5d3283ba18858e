#!/usr/bin/env bash
# Ordered verification gate for the OSPREY reproduction. Stages run
# cheapest-first so style/invariant breakage fails before any sanitizer
# build starts:
#
#   lint    tools/osprey_lint over src/ tests/ bench/ tools/ — the
#           whole-program analyzer: token rules, module-layering DAG,
#           include cycles, determinism-taint reachability. See
#           DESIGN.md §"Static analysis architecture".
#   tidy    clang-tidy with the repo .clang-tidy (SKIPPED when
#           clang-tidy is not installed).
#   tsa     Clang -Wthread-safety -Werror=thread-safety build via
#           -DOSPREY_THREAD_SAFETY=ON, including the negative
#           try_compile check (SKIPPED when clang++ is not installed).
#   tier1   Release build + full ctest suite (the seed gate).
#   obs     Observability gate: `ctest -L obs` (trace determinism,
#           exporter round trips, metrics semantics) plus
#           `osprey_trace --self-check`. See DESIGN.md §"Observability".
#   bench   Bench smoke: the Figure-2 R(t) scenario at reduced
#           iterations (OSPREY_BENCH_SMOKE=1), checking that
#           results/BENCH_fig2_rt.json is emitted and the warm-start
#           online refit beats the cold full refit; one short pass of
#           the metadata, coordinator, SHA-256, JSON-writer, warm
#           Goldstein refit, draws-parse, front-end hit, event-loop
#           dispatch, Zipf-draw and unchanged-poll micro-benchmarks
#           (bench_micro), so they keep compiling and running; then the
#           repository
#           benchmark's smoke run (bench/osprey_bench/run.py --smoke),
#           so a src/ API change that breaks the benchmark's build or
#           its output checks fails the gate.
#   asan    address+undefined sanitizer build, full ctest suite.
#   ubsan   standalone undefined-behavior sanitizer build, full ctest
#           suite (catches UB that ASan's instrumentation masks).
#   tsan    thread sanitizer build, concurrency-heavy suites only:
#           util/emews pools and task DB, offloaded compute tasks
#           (test_fabric_compute), the trace recorder (test_obs_trace)
#           and both use cases end to end, including the wastewater
#           refits running side by side (test_integration_usecases).
#   chaos   thread sanitizer build of the chaos suite: the 16-seed
#           fault-injection sweep (ctest -L chaos) plus the
#           retry/backoff property tests. See DESIGN.md §"Fault model".
#   recovery durability gate: thread sanitizer build of the WAL /
#           crash-recovery suite, then `ctest -L wal` (WAL framing,
#           torn/corrupt-log fuzzing, snapshot round trips, the WAL over
#           an on-disk RealFs, whole-server crash drills, 16-seed
#           kProcessCrash crash-replay sweep).
#           See DESIGN.md §"Durability".
#   serve   serving-tier gate: thread sanitizer build of the cache /
#           front-end suite, then `ctest -L serve` (invalidation,
#           stale-reason propagation, 16-seed flood replay). See
#           DESIGN.md §"Serving tier".
#   shard   sharded-fabric gate: thread sanitizer build of the
#           src/shard suite, then `ctest -L shard` (mailbox total
#           order, campaign round trips, per-partition WAL recovery,
#           the flat-history gate, and the 16-seed cross-shard-count
#           byte-identity sweep with chaos on), plus smoke reps of
#           osprey_bench's two sharded workloads, feeds_hourly and
#           feeds_durable (4 shards, output checks; a failed check
#           exits non-zero), with their report lines written to
#           results/osprey_bench_shard_smoke.jsonl.
#           See DESIGN.md §"Sharded fabric".
#
# Usage: scripts/check.sh [--skip-tsan] [stage ...]
#   No stage arguments = run all stages in order. Naming stages runs
#   just those, still in canonical order. The summary table reports
#   PASS/FAIL/SKIP per stage; exit is non-zero if any stage FAILs.
set -uo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

ALL_STAGES=(lint tidy tsa tier1 obs bench asan ubsan tsan chaos recovery serve shard)
declare -A WANTED=()
SKIP_TSAN=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    lint|tidy|tsa|tier1|obs|bench|asan|ubsan|tsan|chaos|recovery|serve|shard) WANTED[$arg]=1 ;;
    *) echo "unknown argument: $arg" >&2
       echo "usage: scripts/check.sh [--skip-tsan] [stage ...]" >&2
       echo "stages: ${ALL_STAGES[*]}" >&2
       exit 2 ;;
  esac
done

declare -A RESULT=()
FAILED=0

run_stage() {  # run_stage <name> <fn>
  local name="$1" fn="$2"
  if [[ ${#WANTED[@]} -gt 0 && -z "${WANTED[$name]:-}" ]]; then
    RESULT[$name]="-"
    return 0
  fi
  echo
  echo "== stage: $name =="
  local status
  "$fn"
  status=$?
  if [[ $status -eq 0 ]]; then
    RESULT[$name]="PASS"
  elif [[ $status -eq 99 ]]; then
    RESULT[$name]="SKIP"
  else
    RESULT[$name]="FAIL"
    FAILED=1
  fi
  return 0
}

stage_lint() {
  cmake -B build -S . >/dev/null &&
  cmake --build build --target osprey_lint -j "$JOBS" &&
  ./build/tools/osprey_lint --root . --json build/osprey_lint.json \
      src tests bench tools
}

stage_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "clang-tidy not installed; skipping"
    return 99
  fi
  cmake -B build -S . >/dev/null &&
  find src tools -name '*.cpp' | sort |
      xargs -P "$JOBS" -n 8 clang-tidy -p build --quiet
}

stage_tsa() {
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "clang++ not installed; skipping thread-safety build"
    return 99
  fi
  cmake -B build-tsa -S . \
      -DCMAKE_CXX_COMPILER=clang++ \
      -DOSPREY_THREAD_SAFETY=ON >/dev/null &&
  cmake --build build-tsa -j "$JOBS"
}

stage_tier1() {
  cmake -B build -S . >/dev/null &&
  cmake --build build -j "$JOBS" &&
  (cd build && ctest --output-on-failure -j "$JOBS")
}

stage_obs() {
  cmake -B build -S . >/dev/null &&
  cmake --build build -j "$JOBS" \
      --target test_obs_trace test_obs_metrics osprey_trace &&
  (cd build && ctest --output-on-failure -j "$JOBS" -L obs) &&
  ./build/tools/osprey_trace --self-check
}

stage_bench() {
  cmake -B build -S . >/dev/null &&
  cmake --build build -j "$JOBS" --target bench_fig2_rt bench_micro &&
  OSPREY_BENCH_SMOKE=1 ./build/bench/bench_fig2_rt &&
  test -s results/BENCH_fig2_rt.json &&
  echo "bench artifact: results/BENCH_fig2_rt.json" &&
  ./build/bench/bench_micro --benchmark_min_time=0.01 \
      --benchmark_filter='MetadataDb|Coordinator|Sha256|ValueToJson|ValueParseJson|HubRoundRead|GoldsteinWarmUpdate|RenewalIncidence|SheddingConvolve|DrawsFromCsv|FrontEnd|EventLoop|Zipf|UnchangedPoll' &&
  python3 bench/osprey_bench/run.py --smoke
}

stage_asan() {
  cmake -B build-asan -S . -DOSPREY_SANITIZE=address,undefined >/dev/null &&
  cmake --build build-asan -j "$JOBS" &&
  (cd build-asan && ctest --output-on-failure -j "$JOBS")
}

stage_ubsan() {
  cmake -B build-ubsan -S . -DOSPREY_SANITIZE=undefined >/dev/null &&
  cmake --build build-ubsan -j "$JOBS" &&
  (cd build-ubsan && ctest --output-on-failure -j "$JOBS")
}

stage_tsan() {
  if [[ "$SKIP_TSAN" == "1" ]]; then
    echo "skipped (--skip-tsan)"
    return 99
  fi
  cmake -B build-tsan -S . -DOSPREY_SANITIZE=thread >/dev/null &&
  cmake --build build-tsan -j "$JOBS" \
      --target test_util_concurrency test_emews_pool \
               test_emews_taskdb_stress test_fabric_compute \
               test_obs_trace test_integration_usecases &&
  (cd build-tsan && ctest --output-on-failure \
      -R '^(test_util_concurrency|test_emews_pool|test_emews_taskdb_stress|test_fabric_compute|test_obs_trace|test_integration_usecases)$')
}

stage_chaos() {
  if [[ "$SKIP_TSAN" == "1" ]]; then
    echo "skipped (--skip-tsan)"
    return 99
  fi
  cmake -B build-tsan -S . -DOSPREY_SANITIZE=thread >/dev/null &&
  cmake --build build-tsan -j "$JOBS" \
      --target test_chaos_fabric test_failure_injection test_retry_policy &&
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" -L chaos) &&
  (cd build-tsan && ctest --output-on-failure -R '^test_retry_policy$')
}

stage_recovery() {
  if [[ "$SKIP_TSAN" == "1" ]]; then
    echo "skipped (--skip-tsan)"
    return 99
  fi
  cmake -B build-tsan -S . -DOSPREY_SANITIZE=thread >/dev/null &&
  cmake --build build-tsan -j "$JOBS" \
      --target test_aero_wal test_aero_recovery test_util_real_fs &&
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" -L wal)
}

stage_serve() {
  if [[ "$SKIP_TSAN" == "1" ]]; then
    echo "skipped (--skip-tsan)"
    return 99
  fi
  cmake -B build-tsan -S . -DOSPREY_SANITIZE=thread >/dev/null &&
  cmake --build build-tsan -j "$JOBS" --target test_serve_cache &&
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" -L serve)
}

stage_shard() {
  if [[ "$SKIP_TSAN" == "1" ]]; then
    echo "skipped (--skip-tsan)"
    return 99
  fi
  cmake -B build-tsan -S . -DOSPREY_SANITIZE=thread >/dev/null &&
  cmake --build build-tsan -j "$JOBS" \
      --target test_shard_fabric test_shard_replay &&
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" -L shard) &&
  shard_bench_smoke
}

shard_bench_smoke() {  # the same build directory run.py uses
  local dir=.bench_build/osprey_bench report=results/osprey_bench_shard_smoke.jsonl
  cmake -S bench/osprey_bench -B "$dir" -DCMAKE_BUILD_TYPE=Release >/dev/null &&
  cmake --build "$dir" --target osprey_bench -j "$JOBS" &&
  mkdir -p results && : > "$report" || return 1
  local w status=0
  for w in feeds_hourly feeds_durable; do
    rm -rf "$dir/shard-smoke" && mkdir -p "$dir/shard-smoke" &&
    "$dir/osprey_bench" --workload "$w" --seed 1 --smoke \
        --scratch "$dir/shard-smoke" >> "$report" || status=1
  done
  rm -rf "$dir/shard-smoke"
  [[ $status -eq 0 ]] && echo "bench artifact: $report"
}

run_stage lint  stage_lint
[[ $FAILED -eq 0 ]] && run_stage tidy  stage_tidy
[[ $FAILED -eq 0 ]] && run_stage tsa   stage_tsa
[[ $FAILED -eq 0 ]] && run_stage tier1 stage_tier1
[[ $FAILED -eq 0 ]] && run_stage obs   stage_obs
[[ $FAILED -eq 0 ]] && run_stage bench stage_bench
[[ $FAILED -eq 0 ]] && run_stage asan  stage_asan
[[ $FAILED -eq 0 ]] && run_stage ubsan stage_ubsan
[[ $FAILED -eq 0 ]] && run_stage tsan  stage_tsan
[[ $FAILED -eq 0 ]] && run_stage chaos stage_chaos
[[ $FAILED -eq 0 ]] && run_stage recovery stage_recovery
[[ $FAILED -eq 0 ]] && run_stage serve stage_serve
[[ $FAILED -eq 0 ]] && run_stage shard stage_shard

echo
echo "== summary =="
for s in "${ALL_STAGES[@]}"; do
  printf '  %-6s %s\n' "$s" "${RESULT[$s]:-not run (earlier stage failed)}"
done
if [[ $FAILED -ne 0 ]]; then
  echo "check.sh: FAILED"
  exit 1
fi
echo "check.sh: all executed stages passed"
