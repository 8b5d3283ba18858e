#!/usr/bin/env python3
"""Runner for osprey_bench, the repository benchmark (see README.md).

Builds the osprey_bench binary from source into .bench_build/, then runs
workload reps, each in a fresh process, and aggregates their reports.

  run.py --workload W --seed N --seconds S --trace 0|1
      One measurement: reps of W for S seconds. --trace 0 runs untraced
      reps and reports the end-to-end metrics of BENCHMARK.json; --trace 1
      alternates traced and untraced reps and reports the per-layer
      metrics. Human-readable lines first, then one JSON result line.
  run.py --full-set [--sets 1] [--out F]
      5 untraced + 1 traced rep per workload, interleaved round-robin
      across all workloads; every metric with its median, quartiles and
      n. run_benchmark.sh wraps this.
  run.py --smoke [--binary B]
      Every workload shrunk, traced and untraced; fails on a failed output
      check, a missing or non-finite metric, or a deterministic metric
      that differs between the two runs.

Exit status is non-zero when the build fails, a rep fails its output
checks, or reps of one seed disagree on a deterministic result.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_DIR = ROOT / ".bench_build" / "osprey_bench"
SCRATCH_DIR = ROOT / ".bench_build" / "osprey_bench-scratch"
WORKLOADS = ["ww_rt_year", "feeds_hourly", "feeds_durable", "serve_flood"]
REP_TIMEOUT_S = 170
MIN_REPS = 3
FULL_SET_REPS = 5         # untraced, per workload
FULL_SET_TRACED_REPS = 1  # per workload

# What each workload's traced rep exists to show (README.md, "Workloads").
PURPOSE = {
    "ww_rt_year": ("rt.refit_share", ">=", 0.6),
    "feeds_hourly": ("aero.update_ratio", "<", 0.01),
    "serve_flood": ("serve.hit_ratio", ">=", 0.99),
}
# feeds_durable: aero.fs_share must be the largest attributed share.
ATTRIBUTED_SHARES = ["aero.fs_share", "rt.refit_share", "serve.submit_share",
                     "fabric.dispatch_share"]


def fail(message):
    print(f"osprey_bench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing")
    return json.loads(path.read_text())


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full "
             "checkout of the repository")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "osprey_bench", "-j", jobs])
    with open(log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)} (log: {log})")
    binary = BUILD_DIR / "osprey_bench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_rep(binary, workload, seed, traced, smoke):
    """One rep in a fresh process; returns its report (failures filled in
    when the process itself failed)."""
    scratch = SCRATCH_DIR / workload
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--scratch", str(scratch)]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return broken_rep(workload, seed, traced, "rep timed out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return broken_rep(workload, seed, traced,
                          f"exit {proc.returncode}, no report: "
                          f"{proc.stderr.strip()[-300:]}")
    if proc.returncode != 0 and not report["failures"]:
        report["failures"].append(f"exit {proc.returncode}")
    return report


def broken_rep(workload, seed, traced, why):
    return {"workload": workload, "seed": seed,
            "mode": "traced" if traced else "untraced",
            "work": {}, "wall": {}, "failures": [why]}


def metric(rep, name):
    if name in rep["work"]:
        return rep["work"][name]
    return rep["wall"].get(name)


def summary(values):
    values = sorted(values)
    if not values:
        return None
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def disagreements(reps):
    """Deterministic results that differ between reps of one seed."""
    reference = None
    keys = set()
    for rep in reps:
        if rep["failures"]:
            continue
        if reference is None:
            reference = rep["work"]
            continue
        for key in set(reference) | set(rep["work"]):
            if reference.get(key) != rep["work"].get(key):
                keys.add(key)
    return sorted(keys)


def trace_overhead(traced, untraced):
    rate = "feed_days_per_s"
    t = [r["wall"][rate] for r in traced if rate in r["wall"]]
    u = [r["wall"][rate] for r in untraced if rate in r["wall"]]
    if not t or not u:
        return None
    return 1.0 - statistics.median(t) / statistics.median(u)


def layer_values(reps, untraced, name):
    """Per-layer values of `name` over traced reps."""
    if name == "obs.trace_overhead":
        value = trace_overhead(reps, untraced)
        return [] if value is None else [value]
    return [v for v in (metric(r, name) for r in reps) if v is not None]


def fmt(value):
    return f"{value:.6g}"


# --- one measurement ------------------------------------------------------

def measure(args, spec):
    binary = build()
    traced_mode = args.trace == 1
    deadline = time.monotonic() + args.seconds
    traced, untraced = [], []
    while True:
        want_traced = traced_mode and len(traced) <= len(untraced)
        rep = run_rep(binary, args.workload, args.seed, want_traced, False)
        (traced if want_traced else untraced).append(rep)
        enough = len(untraced) >= (2 if traced_mode else MIN_REPS) and (
            not traced_mode or len(traced) >= MIN_REPS)
        if time.monotonic() >= deadline and enough:
            break
    reps = traced + untraced
    failed = sum(1 for r in reps if r["failures"])
    for r in reps:
        for why in r["failures"]:
            print(f"FAILED {r['mode']} rep: {why}")
    differ = disagreements(reps)
    for key in differ:
        print(f"INCONSISTENT across reps of seed {args.seed}: {key}")

    group = "per_layer" if traced_mode else "end_to_end"
    source = traced if traced_mode else untraced
    ok_source = [r for r in source if not r["failures"]]
    ok_untraced = [r for r in untraced if not r["failures"]]
    metrics = {}
    missing = []
    print(f"osprey_bench {args.workload} seed={args.seed} "
          f"{'traced' if traced_mode else 'untraced'}: "
          f"{len(traced)} traced + {len(untraced)} untraced reps")
    for m in spec[group]:
        name, unit = m["name"], m["unit"]
        if traced_mode:
            values = layer_values(ok_source, ok_untraced, name)
            # A layer this workload never enters reads 0 (README.md).
            value = statistics.median(values) if values else 0.0
        else:
            values = [v for v in (metric(r, name) for r in ok_source)
                      if v is not None]
            if not values:
                missing.append(name)
                continue
            value = statistics.median(values)
        if not math.isfinite(value):
            missing.append(name)
            continue
        s = summary(values)
        spread = (f"q1={fmt(s['q1'])} q3={fmt(s['q3'])} n={s['n']}"
                  if s else "not applicable")
        print(f"  {name:34s} {fmt(value):>14s} {unit:16s} {spread}")
        metrics[name] = {"value": value, "unit": unit}
    for name in missing:
        print(f"MISSING metric {name}")
    if traced_mode:
        print("  also in the reports:")
        known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        extra = sorted({k for r in ok_source for k in (*r["work"], *r["wall"])}
                       - known)
        for name in extra:
            s = summary(layer_values(ok_source, ok_untraced, name))
            print(f"  {name:34s} {fmt(s['median']):>14s} "
                  f"{'':16s} q1={fmt(s['q1'])} q3={fmt(s['q3'])} n={s['n']}")
    correct = failed == 0 and not differ and not missing
    result = {"correct": correct, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


# --- full sets --------------------------------------------------------------

def full_set(binary, spec, seed, reps, traced_reps, smoke):
    """Reps interleaved round-robin across workloads; every metric of
    every workload with median, quartiles and n."""
    runs = {w: {"traced": [], "untraced": []} for w in WORKLOADS}
    for _ in range(reps):
        for w in WORKLOADS:
            runs[w]["untraced"].append(run_rep(binary, w, seed, False, smoke))
    for _ in range(traced_reps):
        for w in WORKLOADS:
            runs[w]["traced"].append(run_rep(binary, w, seed, True, smoke))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] +
             spec["per_layer"]}
    out = {}
    for w in WORKLOADS:
        traced = [r for r in runs[w]["traced"] if not r["failures"]]
        untraced = [r for r in runs[w]["untraced"] if not r["failures"]]
        all_reps = runs[w]["traced"] + runs[w]["untraced"]
        entry = {
            "failures": sorted({f for r in all_reps for f in r["failures"]}),
            "inconsistent": disagreements(all_reps),
            # Every metric of the reports: end-to-end ones from the
            # untraced reps, per-layer ones from the traced reps.
            "untraced": {}, "traced": {},
        }
        for mode, reps_of_mode in (("untraced", untraced), ("traced", traced)):
            names = {k for r in reps_of_mode for k in (*r["work"], *r["wall"])}
            if mode == "traced" and reps_of_mode:
                names.add("obs.trace_overhead")
            for name in sorted(names):
                s = summary(layer_values(reps_of_mode, untraced, name))
                if s:
                    entry[mode][name] = s
        entry["purpose"] = purpose_check(w, entry["traced"])
        if traced or untraced:
            entry["params"] = (traced or untraced)[0]["params"]
            entry["work"] = (traced or untraced)[0]["work"]
        out[w] = entry
    first = next((r for w in WORKLOADS for r in runs[w]["untraced"]
                  if "nproc" in r), {})
    provenance = {k: first.get(k) for k in
                  ("nproc", "build_type", "compiler", "git_describe")}
    return {"seed": seed, "smoke": smoke, "reps": reps,
            "traced_reps": traced_reps, **provenance, "workloads": out,
            "units": units}


def purpose_check(workload, layers):
    def med(name):
        return layers.get(name, {}).get("median")
    if workload == "feeds_durable":
        shares = {n: med(n) or 0.0 for n in ATTRIBUTED_SHARES}
        top = max(shares, key=shares.get)
        return {"check": "aero.fs_share is the largest attributed share",
                "ok": top == "aero.fs_share"}
    name, op, bound = PURPOSE[workload]
    value = med(name)
    ok = value is not None and (value >= bound if op == ">=" else
                                value < bound)
    return {"check": f"{name} {op} {bound}", "ok": ok}


def print_set(result, spec):
    units = result["units"]
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for w, entry in result["workloads"].items():
        print(f"== {w} (seed {result['seed']}, {result['reps']} untraced + "
              f"{result['traced_reps']} traced reps)")
        rows = ([(n, entry["untraced"].get(n)) for n in e2e] +
                [(n, entry["traced"].get(n)) for n in layers] +
                [(n, s) for n, s in entry["traced"].items()
                 if n not in units])
        for name, s in rows:
            if s is None:
                print(f"  {name:34s} {'not applicable':>14s}")
                continue
            print(f"  {name:34s} {fmt(s['median']):>14s} "
                  f"{units.get(name, ''):16s} q1={fmt(s['q1'])} "
                  f"q3={fmt(s['q3'])} n={s['n']}")
        p = entry["purpose"]
        print(f"  purpose: {p['check']}: {'ok' if p['ok'] else 'NOT MET'}")
        for f in entry["failures"]:
            print(f"  FAILED: {f}")
        for k in entry["inconsistent"]:
            print(f"  INCONSISTENT: {k}")


def agreement(spec, a, b):
    """Per (workload, end-to-end metric): do two sets' medians agree
    within the metric's bound?"""
    rows = []
    for w in WORKLOADS:
        for m in spec["end_to_end"]:
            sa = a["workloads"][w]["untraced"].get(m["name"])
            sb = b["workloads"][w]["untraced"].get(m["name"])
            if not sa or not sb:
                rows.append({"workload": w, "metric": m["name"],
                             "agree": False})
                continue
            change = (sb["median"] - sa["median"]) / sa["median"]
            rows.append({"workload": w, "metric": m["name"],
                         "set1": sa["median"], "set2": sb["median"],
                         "change": change, "bound": m["bound"],
                         "agree": abs(change) <= m["bound"]})
        # Deterministic results of one seed must match exactly.
        rows.append({"workload": w, "metric": "work (exact)",
                     "agree": a["workloads"][w].get("work") ==
                     b["workloads"][w].get("work")})
    return rows


def run_full_sets(args, spec):
    binary = build()
    sets = []
    for i in range(args.sets):
        result = full_set(binary, spec, args.seed, FULL_SET_REPS,
                          FULL_SET_TRACED_REPS, args.smoke)
        print_set(result, spec)
        sets.append(result)
    doc = {"schema": 1, "bench": "osprey_bench", "sets": sets}
    ok = all(not e["failures"] and not e["inconsistent"]
             for s in sets for e in s["workloads"].values())
    if len(sets) >= 2:
        rows = agreement(spec, sets[0], sets[1])
        doc["agreement"] = rows
        print("== agreement of set 1 and set 2 (end-to-end medians)")
        for r in rows:
            if "change" not in r:
                print(f"  {r['workload']:14s} {r['metric']:22s} "
                      f"{'agree' if r['agree'] else 'DISAGREE'}")
                continue
            print(f"  {r['workload']:14s} {r['metric']:22s} "
                  f"{fmt(r['set1']):>12s} {fmt(r['set2']):>12s} "
                  f"{r['change']:+8.3%} bound {r['bound']:.0%} "
                  f"{'agree' if r['agree'] else 'DISAGREE'}")
        ok = ok and all(r["agree"] for r in rows)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


# --- smoke ------------------------------------------------------------------

def smoke(args, spec):
    binary = Path(args.binary) if args.binary else build()
    problems = []
    produced = set()
    for w in WORKLOADS:
        started = time.monotonic()
        untraced = run_rep(binary, w, args.seed, False, True)
        traced = run_rep(binary, w, args.seed, True, True)
        elapsed = time.monotonic() - started
        print(f"{w}: traced + untraced smoke reps in {elapsed:.1f} s")
        for rep in (untraced, traced):
            problems += [f"{w} {rep['mode']}: {f}" for f in rep["failures"]]
        for m in spec["end_to_end"]:
            v = metric(untraced, m["name"])
            if v is None or not math.isfinite(v):
                problems.append(f"{w}: end-to-end metric {m['name']} "
                                "missing or non-finite")
        for rep in (untraced, traced):
            for group in ("work", "wall"):
                for name, v in rep[group].items():
                    if v is None or not math.isfinite(v):
                        problems.append(f"{w}: {name} is not finite")
        produced |= set(traced["work"]) | set(traced["wall"])
        problems += [f"{w}: {k} differs between traced and untraced"
                     for k in disagreements([untraced, traced])]
    for m in spec["per_layer"]:
        if m["name"] != "obs.trace_overhead" and m["name"] not in produced:
            problems.append(f"per-layer metric {m['name']} is produced by "
                            "no workload")
    for p in problems:
        print(f"SMOKE FAILURE: {p}")
    print("smoke: ok" if not problems else
          f"smoke: {len(problems)} failure(s)")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--full-set", action="store_true")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary")
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.full_set:
        return run_full_sets(args, spec)
    if args.smoke:
        return smoke(args, spec)
    if args.workload is None:
        parser.error("--workload, --full-set or --smoke is required")
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
