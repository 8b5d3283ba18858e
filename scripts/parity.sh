#!/usr/bin/env bash
# Artifact parity with another commit. Builds <ref> from a plain export
# of its tree under build-parity/<sha>/, builds the working tree in
# build/, runs the chaos seed sweep (ChaosSeedTest, seeds 0-15) and the
# shard seed sweep (ShardReplayTest, seeds 0-15, 1-shard run) on both
# sides with OSPREY_ARTIFACT_DIR set, and diffs the artifacts: for each
# seed the incident log, Chrome trace, metrics JSON and Prometheus text.
# The GSA side adds the `%.17g` trajectories of MusicCoop's sync/async
# run and of the pinned MUSIC and calibrator runs (test_gsa_music,
# test_calibrate_catalog).
# It then builds osprey_bench (bench/osprey_bench/CMakeLists.txt) for
# both sides under build-parity/<sha>/, runs every BENCHMARK.json
# workload once with --smoke --seed 1 and diffs the reports' `work`
# maps (the deterministic counts and accuracy figures of each run).
#
# Usage: scripts/parity.sh <ref>
#   Prints every artifact and every work count that differs (or exists
#   on one side only) and exits non-zero on any difference or when a
#   sweep case or a benchmark rep fails on either side. Artifacts stay
#   in build-parity/<sha>/artifacts/{ref,head} for inspection, e.g.
#   `diff build-parity/<sha>/artifacts/{ref,head}/X`, and the reports in
#   build-parity/<sha>/work/{ref,head}/<workload>.json.
#   The ref's seed tests must write artifacts (tests/artifact_dump.hpp);
#   older refs produce none and every file is reported as head-only.
#   The GSA trajectory files first appear with the change that adds
#   them, so against its parent they show as head-only once. A ref
#   without bench/osprey_bench skips the work-map check.
set -uo pipefail

cd "$(dirname "$0")/.."
if [[ $# -ne 1 ]]; then
  echo "usage: scripts/parity.sh <ref>" >&2
  exit 2
fi
sha="$(git rev-parse --verify --quiet "$1^{commit}")" || {
  echo "parity: not a commit: $1" >&2
  exit 2
}
JOBS="$(nproc 2>/dev/null || echo 4)"
root="build-parity/$sha"
targets=(--target test_chaos_fabric test_shard_replay test_gsa_music
         test_calibrate_catalog)

# A plain export leaves no worktree registration behind in .git.
if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  rm -rf "$root/src" && mkdir -p "$root/src" &&
  git archive "$sha" | tar -x -C "$root/src" || exit 1
fi
build() {  # build <source dir> <build dir> <log>
  cmake -B "$2" -S "$1" >"$3" 2>&1 &&
  cmake --build "$2" -j "$JOBS" "${targets[@]}" >>"$3" 2>&1 || {
    tail -n 30 "$3"
    echo "parity: build of $1 failed (see $3)" >&2
    exit 1
  }
}
echo "== build $1 ($sha) =="
build "$root/src" "$root/build" "$root/build.ref.log"
echo "== build working tree =="
build . build "$root/build.head.log"

sweep() {  # sweep <build dir> <artifact dir> <log>
  local bin="$1/tests" out="$2" log="$3"
  rm -rf "$out" && mkdir -p "$out"
  OSPREY_ARTIFACT_DIR="$out" "$bin/test_chaos_fabric" \
      --gtest_filter='Seeds/ChaosSeedTest.*' >"$log" 2>&1 &&
  OSPREY_ARTIFACT_DIR="$out" "$bin/test_shard_replay" \
      --gtest_filter='Seeds/ShardReplayTest.*' >>"$log" 2>&1 &&
  OSPREY_ARTIFACT_DIR="$out" "$bin/test_gsa_music" \
      --gtest_filter='MusicCoop.MatchesSynchronousRun:MusicPinned.*' \
      >>"$log" 2>&1 &&
  OSPREY_ARTIFACT_DIR="$out" "$bin/test_calibrate_catalog" \
      --gtest_filter='CalibratorPinned.*' >>"$log" 2>&1
}

echo "== seed sweeps (both sides in parallel) =="
art="$root/artifacts"
sweep "$root/build" "$art/ref" "$art.ref.log" &
ref_pid=$!
sweep build "$art/head" "$art.head.log" &
head_pid=$!
status=0
wait "$ref_pid" || { echo "parity: a sweep case failed at $1 (see $art.ref.log)"; status=1; }
wait "$head_pid" || { echo "parity: a sweep case failed in the working tree (see $art.head.log)"; status=1; }

differ=0
while IFS= read -r file; do
  echo "differs: $file"
  differ=$((differ + 1))
done < <(cd "$art" &&
         { ls ref; ls head; } | sort -u | while IFS= read -r f; do
           cmp -s "ref/$f" "head/$f" || echo "$f"
         done)
total="$(cd "$art" && { ls ref; ls head; } | sort -u | wc -l)"
echo "parity: $differ of $total artifacts differ ($art/{ref,head})"

bench() {  # bench <source dir> <build dir> <work dir> <log>
  cmake -S "$1/bench/osprey_bench" -B "$2" >"$4" 2>&1 &&
  cmake --build "$2" -j "$JOBS" >>"$4" 2>&1 || {
    tail -n 30 "$4"
    echo "parity: osprey_bench build of $1 failed (see $4)" >&2
    exit 1
  }
  rm -rf "$3" && mkdir -p "$3/scratch"
  local w
  for w in "${workloads[@]}"; do
    "$2/osprey_bench" --workload "$w" --seed 1 --smoke \
        --scratch "$3/scratch/$w" >"$3/$w.json" 2>>"$4" || {
      echo "parity: osprey_bench $w failed in $1 (see $3/$w.json)"
      status=1
    }
  done
}

work="$root/work"
if [[ -f "$root/src/bench/osprey_bench/CMakeLists.txt" ]]; then
  mapfile -t workloads < <(python3 -c \
      'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
  echo "== osprey_bench work maps (${workloads[*]}) =="
  bench "$root/src" "$root/bench-ref" "$work/ref" "$root/bench.ref.log"
  bench . "$root/bench-head" "$work/head" "$root/bench.head.log"
  python3 - "$work" "${workloads[@]}" <<'PY' || differ=$((differ + 1))
import json
import sys

work, workloads = sys.argv[1], sys.argv[2:]
differ = 0
for w in workloads:
    maps = []
    for side in ("ref", "head"):
        try:
            with open(f"{work}/{side}/{w}.json") as f:
                maps.append(json.load(f)["work"])
        except (OSError, ValueError, KeyError):
            maps.append({})
    ref, head = maps
    for key in sorted(set(ref) | set(head)):
        if ref.get(key) != head.get(key):
            print(f"differs: {w} work.{key}: {ref.get(key)} -> {head.get(key)}")
            differ += 1
print(f"parity: {differ} work counts differ across {len(workloads)} "
      f"workloads ({work}/{{ref,head}})")
sys.exit(1 if differ else 0)
PY
else
  echo "parity: $1 has no bench/osprey_bench; work maps not compared"
fi
[[ $differ -eq 0 && $status -eq 0 ]]
