#pragma once

/// \file measure.hpp
/// Measurement helpers shared by the workloads: a steady-clock
/// stopwatch, process CPU/RSS from getrusage, quantiles with the tail
/// rule of the report, and the publication-to-version freshness lags.
/// Everything here is measured from outside the library: the bench
/// times its own calls into public functions.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "aero/metadata_db.hpp"
#include "aero/server.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "util/sim_time.hpp"

namespace osprey::bench {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// CPU seconds of the whole process (all threads) so far.
inline double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Peak resident set size of this process image, in MB: VmHWM from
/// /proc/self/status. getrusage's ru_maxrss is not used because Linux
/// carries the parent's high-water mark across fork and exec, so a small
/// workload would report its launcher's memory.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// AERO counters summed over one server or a fabric's partitions.
struct AeroTotals {
  double polls = 0.0;
  double updates = 0.0;
  double flow_runs = 0.0;
  double failed = 0.0;
  double metadata_ops = 0.0;

  void add(const aero::AeroServer& server) {
    polls += static_cast<double>(server.polls());
    updates += static_cast<double>(server.updates_detected());
    flow_runs += static_cast<double>(server.ingestion_runs() +
                                     server.analysis_runs());
    failed += static_cast<double>(server.failed_runs());
    metadata_ops += static_cast<double>(server.db().query_count() +
                                        server.db().update_count());
  }
};

/// Records the fabric and aero work counts every workload has, and
/// checks that no flow run failed (no faults are injected).
inline void report_work(Report& r, double events, const AeroTotals& aero,
                        double feed_days) {
  r.check(aero.failed == 0.0, "flow runs failed without faults");
  r.set_work("fabric.events", events);
  r.set_work("fabric.events_per_feed_day", ratio(events, feed_days));
  r.set_work("aero.polls", aero.polls);
  r.set_work("aero.update_ratio", ratio(aero.updates, aero.polls));
  r.set_work("aero.flow_runs", aero.flow_runs);
  r.set_work("aero.failed_ratio", ratio(aero.failed, aero.flow_runs));
  r.set_work("aero.metadata_ops_per_feed_day",
             ratio(aero.metadata_ops, feed_days));
}

/// A registry counter's value (0 when the counter was never created).
inline double counter_value(const obs::MetricsRegistry& metrics,
                            const char* name) {
  const obs::Counter* c = metrics.find_counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

/// One slice of the host-speed reference loop: a fixed stream of
/// xorshift steps, data-dependent branches and reads from a 64 KiB
/// table, owned by the bench so no library change can move it. Returns
/// wall ns per op.
inline double reference_ns_per_op() {
  constexpr std::uint32_t kMask = (1u << 14) - 1;  // 16K x 4 B
  constexpr std::uint32_t kOps = 20'000;
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(kMask + 1);
    std::uint64_t z = 0x2545F4914F6CDD1DULL;
    for (std::uint32_t& v : t) {
      z = z * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<std::uint32_t>(z >> 33);
    }
    return t;
  }();
  static volatile std::uint32_t sink = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint32_t acc = 0;
  Stopwatch sw;
  for (std::uint32_t i = 0; i < kOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[static_cast<std::uint32_t>(x) & kMask];
    if (acc & 1u) acc = acc * 3u + 1u;
  }
  const double ns = sw.seconds() * 1e9 / kOps;
  sink = sink + acc;
  return ns;
}

/// Appends `n` reference-loop samples (after one discarded warm-up).
inline void sample_host_speed(std::vector<double>& samples, int n) {
  reference_ns_per_op();
  for (int i = 0; i < n; ++i) samples.push_back(reference_ns_per_op());
}

/// Linear-interpolated q-quantile (0 for an empty sample).
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

/// The reported tail percentile: the highest of p90/p99/p99.9 that
/// leaves at least ten samples beyond it (p90 below 100 samples).
inline double tail_q(std::size_t n) {
  if (n >= 10000) return 0.999;
  if (n >= 1000) return 0.99;
  return 0.90;
}

/// quantile() over non-negative integer samples held as a count per
/// value (counts[v] samples equal to v), in O(distinct values) memory.
inline double quantile_counts(const std::vector<std::uint64_t>& counts,
                              double q) {
  std::uint64_t n = 0;
  for (std::uint64_t c : counts) n += c;
  if (n == 0) return 0.0;
  const double pos = q * static_cast<double>(n - 1);
  const std::uint64_t lo = static_cast<std::uint64_t>(std::floor(pos));
  const std::uint64_t hi = std::min(lo + 1, n - 1);
  auto value_at = [&](std::uint64_t rank) {
    std::uint64_t seen = 0;
    for (std::size_t v = 0; v < counts.size(); ++v) {
      seen += counts[v];
      if (seen > rank) return static_cast<double>(v);
    }
    return static_cast<double>(counts.size() - 1);
  };
  const double a = value_at(lo), b = value_at(hi);
  return a + (b - a) * (pos - static_cast<double>(lo));
}

/// Records `<prefix>_p50<unit>`, `<prefix>_tail<unit>` and which
/// percentile the tail is, as deterministic results.
template <class Quantile>
void set_p50_tail(Report& r, const std::string& prefix,
                  const std::string& unit, std::size_t n,
                  Quantile&& quantile_of) {
  const double q = tail_q(n);
  r.set_work(prefix + "_p50" + unit, quantile_of(0.5));
  r.set_work(prefix + "_tail" + unit, quantile_of(q));
  r.set_work(prefix + "_tail_q", q);
  r.set_work(prefix + "_n", static_cast<double>(n));
}

/// Freshness: for each upstream publication, the virtual minutes until
/// the first version of `versions` at or after it. A publication with no
/// such version is "pending" when it came after `pending_after` (the run
/// ended before the pipeline could pick it up), and lost otherwise.
struct Freshness {
  std::vector<double> lags_min;
  std::size_t pending = 0;
  std::size_t lost = 0;
};

inline void add_freshness(Freshness& out,
                          const std::vector<osprey::util::SimTime>& published,
                          const std::vector<aero::DataVersion>& versions,
                          osprey::util::SimTime pending_after) {
  std::vector<osprey::util::SimTime> stamps;
  stamps.reserve(versions.size());
  for (const aero::DataVersion& v : versions) stamps.push_back(v.timestamp);
  for (osprey::util::SimTime t : published) {
    auto it = std::lower_bound(stamps.begin(), stamps.end(), t);
    if (it == stamps.end()) {
      ++(t > pending_after ? out.pending : out.lost);
      continue;
    }
    out.lags_min.push_back(static_cast<double>(*it - t) /
                           static_cast<double>(osprey::util::kMinute));
  }
}

/// Records a lag distribution (`<prefix>_p50_min`, `_tail_min`,
/// `_max_min`, `_pending`) and checks the freshness contract: no
/// publication lost, none later than `limit`. Batching that trades
/// freshness for throughput fails the rep instead of speeding it up.
inline void report_lags(Report& r, const std::string& prefix,
                        const Freshness& f, osprey::util::SimTime limit) {
  set_p50_tail(r, prefix, "_min", f.lags_min.size(),
               [&](double q) { return quantile(f.lags_min, q); });
  const double max =
      f.lags_min.empty()
          ? 0.0
          : *std::max_element(f.lags_min.begin(), f.lags_min.end());
  r.set_work(prefix + "_max_min", max);
  r.set_work(prefix + "_pending", static_cast<double>(f.pending));
  r.check(f.lost == 0, prefix + ": a publication never reached a version");
  r.check(!f.lags_min.empty(), prefix + ": no publication was measured");
  r.check(max <= static_cast<double>(limit) /
                     static_cast<double>(osprey::util::kMinute),
          prefix + ": a lag exceeds its limit");
}

/// Times one rep: host-speed samples, then set-up from construction of
/// the TimedRun to end_setup(), then the run as a sequence of steps,
/// with host-speed samples after every step kept out of the step times.
class TimedRun {
 public:
  TimedRun() {
    sample_host_speed(setup_ref_ns, 5);
    setup_clock_ = Stopwatch();
  }

  void end_setup() {
    setup_s = setup_clock_.seconds();
    sample_host_speed(setup_ref_ns, 5);
  }

  /// Calls step(1) .. step(steps), one virtual day each.
  template <class Step>
  void run_steps(int steps, Step&& step) {
    const int samples_per_step = std::max(1, (60 + steps - 1) / steps);
    double sampling_s = 0.0;
    const double cpu0 = process_cpu_seconds();
    for (int d = 1; d <= steps; ++d) {
      Stopwatch sw;
      step(d);
      const double s = sw.seconds();
      step_ms.push_back(s * 1e3);
      run_s += s;
      Stopwatch sampling;
      sample_host_speed(run_ref_ns, samples_per_step);
      sampling_s += sampling.seconds();
    }
    // The samples are single-threaded busy loops: their CPU time is
    // their wall time.
    cpu_s = process_cpu_seconds() - cpu0 - sampling_s;
    rss_mb = peak_rss_mb();
  }

  double setup_s = 0.0;  // wall
  double run_s = 0.0;    // wall, sum of the steps
  double cpu_s = 0.0;    // process CPU during the steps
  double rss_mb = 0.0;   // peak RSS when the run ended
  std::vector<double> step_ms;
  std::vector<double> setup_ref_ns, run_ref_ns;  // host-speed samples
  /// Feeds x virtual days the run advanced.
  double feed_days = 0.0;
  /// Run wall time the bench's own boundaries and synchronous spans
  /// account for.
  double attributed_s = 0.0;

 private:
  Stopwatch setup_clock_;
};

/// ns per reference op on the 4-vCPU 2.0 GHz Xeon VM the baseline came
/// from, at its fastest: one reference second is the time the host takes
/// for 1e9 / kReferenceNsPerOp ops. Its value only sets the unit.
constexpr double kReferenceNsPerOp = 7.0;

/// End-to-end metrics every workload reports, plus the process layer.
/// Times are in reference seconds: wall seconds scaled by the measured
/// speed of the reference loop around them, so two runs minutes apart
/// on a host whose speed drifts stay comparable. The raw wall numbers
/// and the host speed are kept under wall.* and host.*.
inline void report_end_to_end(Report& r, const TimedRun& run) {
  const double setup_ns = quantile(run.setup_ref_ns, 0.5);
  const double run_ns = quantile(run.run_ref_ns, 0.5);
  const double setup_scale = ratio(kReferenceNsPerOp, setup_ns);
  const double run_scale = ratio(kReferenceNsPerOp, run_ns);
  r.set_wall("setup_s", run.setup_s * setup_scale);
  r.set_wall("feed_days_per_s", ratio(run.feed_days, run.run_s * run_scale));
  r.set_wall("peak_rss_mb", run.rss_mb);
  r.set_wall("wall.setup_s", run.setup_s);
  r.set_wall("wall.run_s", run.run_s);
  r.set_wall("wall.feed_days_per_s", ratio(run.feed_days, run.run_s));
  r.set_wall("host.setup_ns_per_op", setup_ns);
  r.set_wall("host.run_ns_per_op", run_ns);
  r.set_wall("fabric.step_ms_p50", quantile(run.step_ms, 0.5));
  r.set_wall("fabric.step_ms_p99", quantile(run.step_ms, 0.99));
  r.set_wall("proc.cpu_per_wall", ratio(run.cpu_s, run.run_s));
  r.set_wall("proc.unattributed_share",
             1.0 - ratio(run.attributed_s, run.run_s));
  r.set_work("feed_days", run.feed_days);
}

}  // namespace osprey::bench
