#pragma once

/// \file workloads.hpp
/// The four osprey_bench workloads and the probes they share. Each
/// workload builds its inputs from the seed, times set-up and the run
/// separately, checks its own outputs (Report::check) and fills the
/// report with the metric names BENCHMARK.json declares. README.md says
/// why each workload exists and which layer each metric belongs to.

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace osprey::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Per-layer rep: tracing on with wall-clock span annotations, plus
  /// the bench-side timers and probes. Untraced reps give the
  /// end-to-end numbers.
  bool traced = false;
  /// Every workload shrunk to a couple of seconds, same code path.
  bool smoke = false;
  /// Directory the rep may write to (feeds_durable's WAL files).
  std::string scratch = ".";
};

void run_ww_rt_year(const Options& options, Report& report);
void run_feeds_hourly(const Options& options, Report& report);
void run_feeds_durable(const Options& options, Report& report);
void run_serve_flood(const Options& options, Report& report);

/// Dispatch probe: records fabric.dispatch_ns_per_event, the ns per event
/// of a fresh fabric::EventLoop running 2M no-op callbacks with 64
/// pending, and fabric.dispatch_share (that cost x `events` / the timed
/// run's process CPU seconds).
void report_dispatch(const Options& options, Report& report,
                     double events, double cpu_s);

/// WAL probe over the records a run left behind: mean µs to re-encode a
/// record (Value::to_json + aero::encode_record) and SHA-256 throughput
/// on the same payloads.
struct WalProbe {
  double encode_us = 0.0;
  double sha256_mb_per_s = 0.0;
};
WalProbe probe_wal(const std::vector<std::string>& payloads);

}  // namespace osprey::bench
