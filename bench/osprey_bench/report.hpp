#pragma once

/// \file report.hpp
/// The one report schema of osprey_bench. Every workload process prints
/// exactly one of these as a JSON line; run.py aggregates them into the
/// same shape (with "reps" > 1 and each metric summarised by its median,
/// quartiles and sample count).
///
///   provenance  bench, workload, seed, mode, smoke, reps, nproc,
///               build_type, compiler, git_describe
///   params      the workload's parameters (sizes, cadence, shards)
///   work        deterministic results: work counts and virtual-time
///               numbers. Identical for every rep of one (workload, seed,
///               smoke) — traced or not — so run.py compares them exactly.
///   wall        numbers measured on the machine: wall and CPU time,
///               memory, probe results, and anything that depends on the
///               tracing mode (span counts).
///   failures    output-check violations; non-empty means the rep failed.
///
/// Metric keys are the names BENCHMARK.json uses.

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/value.hpp"

// OSPREY_BENCH_BUILD_TYPE, OSPREY_BENCH_COMPILER and
// OSPREY_BENCH_GIT_DESCRIBE come from CMakeLists.txt.

namespace osprey::bench {

struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  bool smoke = false;
  osprey::util::ValueObject params;
  osprey::util::ValueObject work;
  osprey::util::ValueObject wall;
  std::vector<std::string> failures;

  /// Record a deterministic result. A non-finite value is a failure: the
  /// JSON writer cannot carry it, and no metric here may be undefined.
  void set_work(const std::string& name, double value) {
    store(work, name, value);
  }
  void set_wall(const std::string& name, double value) {
    store(wall, name, value);
  }

  /// Output check: records `what` as a failure unless `ok`.
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }

  osprey::util::Value to_value() const {
    using osprey::util::Value;
    osprey::util::ValueObject out;
    out["schema"] = Value(1);
    out["bench"] = Value("osprey_bench");
    out["workload"] = Value(workload);
    out["seed"] = Value(static_cast<std::int64_t>(seed));
    out["mode"] = Value(traced ? "traced" : "untraced");
    out["smoke"] = Value(smoke);
    out["reps"] = Value(1);
    out["nproc"] = Value(static_cast<std::int64_t>(
        std::thread::hardware_concurrency()));
    out["build_type"] = Value(OSPREY_BENCH_BUILD_TYPE);
    out["compiler"] = Value(OSPREY_BENCH_COMPILER);
    out["git_describe"] = Value(OSPREY_BENCH_GIT_DESCRIBE);
    out["params"] = Value(params);
    out["work"] = Value(work);
    out["wall"] = Value(wall);
    osprey::util::ValueArray fails;
    for (const std::string& f : failures) fails.emplace_back(f);
    out["failures"] = Value(std::move(fails));
    return Value(std::move(out));
  }

 private:
  void store(osprey::util::ValueObject& group, const std::string& name,
             double value) {
    if (!std::isfinite(value)) {
      failures.push_back("metric " + name + " is not finite");
      value = 0.0;
    }
    group[name] = osprey::util::Value(value);
  }
};

}  // namespace osprey::bench
