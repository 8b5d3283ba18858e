#include <cstdint>
#include <string>
#include <vector>

#include "aero/wal.hpp"
#include "crypto/sha256.hpp"
#include "fabric/event_loop.hpp"
#include "measure.hpp"
#include "util/value.hpp"
#include "workloads.hpp"

namespace osprey::bench {

namespace {

/// Written with the probes' results so the timed work cannot be elided.
volatile std::size_t g_sink = 0;

/// State of the dispatch probe: each callback re-arms itself one
/// virtual ms later until the budget is spent. The callback captures a
/// single pointer, so std::function stores it inline and the probe
/// times dispatch, not allocation.
struct DispatchProbe {
  fabric::EventLoop loop;
  std::uint64_t budget = 0;
  std::uint64_t scheduled = 0;

  void arm(fabric::SimTime at) {
    ++scheduled;
    loop.schedule_at(at, [this] {
      if (scheduled < budget) arm(loop.now() + 1);
    });
  }
};

/// ns per event of a fresh fabric::EventLoop running `events` no-op
/// callbacks with 64 pending.
double probe_dispatch_ns_per_event(std::uint64_t events) {
  constexpr std::uint64_t kPending = 64;
  DispatchProbe probe;
  probe.budget = std::max(events, kPending);
  for (std::uint64_t i = 0; i < kPending; ++i) {
    probe.arm(static_cast<fabric::SimTime>(i));
  }
  Stopwatch sw;
  std::size_t fired = probe.loop.run_all(probe.budget + 1);
  return ratio(sw.seconds() * 1e9, static_cast<double>(fired));
}

}  // namespace

void report_dispatch(const Options& options, Report& report, double events,
                     double cpu_s) {
  const double ns = probe_dispatch_ns_per_event(options.smoke ? 200'000
                                                              : 2'000'000);
  report.set_wall("fabric.dispatch_ns_per_event", ns);
  report.set_wall("fabric.dispatch_share", ratio(ns * events, cpu_s * 1e9));
}

WalProbe probe_wal(const std::vector<std::string>& payloads) {
  WalProbe out;
  if (payloads.empty()) return out;
  std::vector<osprey::util::Value> records;
  records.reserve(payloads.size());
  std::size_t bytes = 0;
  for (const std::string& p : payloads) {
    records.push_back(osprey::util::Value::parse_json(p));
    bytes += p.size();
  }

  std::size_t framed = 0;
  Stopwatch encode;
  for (const osprey::util::Value& record : records) {
    framed += aero::encode_record(record.to_json()).size();
  }
  out.encode_us = encode.seconds() * 1e6 /
                  static_cast<double>(records.size());

  std::uint8_t fold = 0;
  Stopwatch hash;
  for (const std::string& p : payloads) {
    osprey::crypto::Sha256 hasher;
    hasher.update(p);
    fold ^= hasher.digest()[0];
  }
  out.sha256_mb_per_s =
      ratio(static_cast<double>(bytes) / 1e6, hash.seconds());
  g_sink = framed + fold;
  return out;
}

}  // namespace osprey::bench
