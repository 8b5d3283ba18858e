/// obs::MetricsRegistry semantics: counter/gauge basics, histogram
/// bucketing and quantile edge cases, deterministic snapshot ordering,
/// kind collisions, the Prometheus text exposition format, and the
/// instrument layout the production wiring sites register.

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "obs/export.hpp"
#include "obs/merge.hpp"
#include "obs/metrics.hpp"
#include "shard/partition.hpp"
#include "util/error.hpp"

namespace obs = osprey::obs;
namespace ou = osprey::util;

TEST(Counter, StartsAtZeroAndAccumulates) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("requests_total", "requests");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name returns the same instrument.
  EXPECT_EQ(&reg.counter("requests_total"), &c);
}

TEST(Gauge, SetAndAdd) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("queue_depth", "depth");
  EXPECT_EQ(g.value(), 0.0);
  g.set(5.0);
  g.add(-2.0);
  EXPECT_EQ(g.value(), 3.0);
}

TEST(Histogram, EmptyHistogram) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", {1.0, 10.0}, "latency");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);  // 2 bounds + overflow
  for (std::uint64_t b : buckets) EXPECT_EQ(b, 0u);
}

TEST(Histogram, SingleObservation) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", {1.0, 10.0}, "latency");
  h.observe(3.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 3.0);
  EXPECT_EQ(h.min(), 3.0);
  EXPECT_EQ(h.max(), 3.0);
  // All quantiles of a single-point distribution are that point.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
}

TEST(Histogram, BoundaryValuesAreLeInclusive) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", {1.0, 10.0}, "latency");
  h.observe(1.0);   // lands in the le=1 bucket (Prometheus semantics)
  h.observe(10.0);  // lands in the le=10 bucket
  h.observe(11.0);  // overflow
  std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
}

TEST(Histogram, QuantilesInterpolateAndClamp) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", {10.0, 20.0, 30.0}, "latency");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i % 30) + 1.0);
  double q0 = h.quantile(0.0);
  double q50 = h.quantile(0.5);
  double q100 = h.quantile(1.0);
  EXPECT_LE(q0, q50);
  EXPECT_LE(q50, q100);
  EXPECT_GE(q0, h.min());
  EXPECT_LE(q100, h.max());
}

TEST(Histogram, RejectsUnsortedBounds) {
  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("bad", {10.0, 1.0}, "x"), ou::InvalidArgument);
  EXPECT_THROW(reg.histogram("empty", {}, "x"), ou::InvalidArgument);
}

TEST(Registry, KindCollisionThrows) {
  obs::MetricsRegistry reg;
  reg.counter("x", "a counter");
  EXPECT_THROW(reg.gauge("x"), ou::InvalidArgument);
  EXPECT_THROW(reg.histogram("x", {1.0}), ou::InvalidArgument);
}

TEST(Registry, SnapshotOrderingIsDeterministic) {
  obs::MetricsRegistry reg;
  // Register in non-sorted order; names come back sorted.
  reg.counter("zeta_total");
  reg.counter("alpha_total");
  reg.gauge("mid_gauge");
  std::vector<std::string> names = reg.counter_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha_total");
  EXPECT_EQ(names[1], "zeta_total");

  ou::Value snap = reg.snapshot();
  std::string json = snap.to_json();
  // Key order in Value objects is lexicographic, so two snapshots of
  // identical state serialize identically.
  EXPECT_EQ(json, reg.snapshot().to_json());
  EXPECT_LT(json.find("alpha_total"), json.find("zeta_total"));
}

TEST(Prometheus, TextExpositionFormat) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("aero_polls_total", "upstream polls");
  c.inc(7);
  reg.gauge("fabric_queue_depth", "queued jobs").set(3.0);
  obs::Histogram& h =
      reg.histogram("task_ms", {10.0, 100.0}, "task latency (ms)");
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);

  std::string text = obs::prometheus_text(reg);
  EXPECT_NE(text.find("# HELP aero_polls_total upstream polls"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE aero_polls_total counter"), std::string::npos);
  EXPECT_NE(text.find("aero_polls_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fabric_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE task_ms histogram"), std::string::npos);
  // Cumulative buckets: le="10" has 1, le="100" has 2, +Inf has all 3.
  EXPECT_NE(text.find("task_ms_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(text.find("task_ms_bucket{le=\"100\"} 2"), std::string::npos);
  EXPECT_NE(text.find("task_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("task_ms_count 3"), std::string::npos);
  // Deterministic: a second export is byte-identical.
  EXPECT_EQ(text, obs::prometheus_text(reg));
}

TEST(Prometheus, UnlabeledAndShardLabeledExpositionsAreByteExact) {
  obs::MetricsRegistry a;
  a.counter("aero_polls_total", "upstream polls").inc(7);
  a.gauge("fabric_queue_depth", "queued jobs").set(2.5);
  obs::Histogram& ha = a.histogram("task_ms", {10.0, 100.0}, "task latency");
  ha.observe(5.0);
  ha.observe(50.0);
  ha.observe(500.0);
  // Shard "b" lacks the gauge, so its family lists shard "a" only.
  obs::MetricsRegistry b;
  b.counter("aero_polls_total", "upstream polls").inc(3);
  b.histogram("task_ms", {10.0, 100.0}, "task latency").observe(0.25);

  EXPECT_EQ(obs::prometheus_text(a),
            "# HELP aero_polls_total upstream polls\n"
            "# TYPE aero_polls_total counter\n"
            "aero_polls_total 7\n"
            "# HELP fabric_queue_depth queued jobs\n"
            "# TYPE fabric_queue_depth gauge\n"
            "fabric_queue_depth 2.5\n"
            "# HELP task_ms task latency\n"
            "# TYPE task_ms histogram\n"
            "task_ms_bucket{le=\"10\"} 1\n"
            "task_ms_bucket{le=\"100\"} 2\n"
            "task_ms_bucket{le=\"+Inf\"} 3\n"
            "task_ms_sum 555\n"
            "task_ms_count 3\n");
  EXPECT_EQ(obs::prometheus_text_sharded({{"a", &a}, {"b", &b}}),
            "# HELP aero_polls_total upstream polls\n"
            "# TYPE aero_polls_total counter\n"
            "aero_polls_total{shard=\"a\"} 7\n"
            "aero_polls_total{shard=\"b\"} 3\n"
            "# HELP fabric_queue_depth queued jobs\n"
            "# TYPE fabric_queue_depth gauge\n"
            "fabric_queue_depth{shard=\"a\"} 2.5\n"
            "# HELP task_ms task latency\n"
            "# TYPE task_ms histogram\n"
            "task_ms_bucket{shard=\"a\",le=\"10\"} 1\n"
            "task_ms_bucket{shard=\"a\",le=\"100\"} 2\n"
            "task_ms_bucket{shard=\"a\",le=\"+Inf\"} 3\n"
            "task_ms_sum{shard=\"a\"} 555\n"
            "task_ms_count{shard=\"a\"} 3\n"
            "task_ms_bucket{shard=\"b\",le=\"10\"} 1\n"
            "task_ms_bucket{shard=\"b\",le=\"100\"} 1\n"
            "task_ms_bucket{shard=\"b\",le=\"+Inf\"} 1\n"
            "task_ms_sum{shard=\"b\"} 0.25\n"
            "task_ms_count{shard=\"b\"} 1\n");
}

// --- registry layout of the production wiring sites ----------------------
//
// Every instrument's kind and name, then its help string and (for
// histograms) bucket bounds on indented lines, in sorted order. Together
// these fix the Prometheus exposition of a wiring site up to the sample
// values, so a change in which service registers what, or where, cannot
// silently rename, drop, re-describe or re-bucket a metric.

namespace {

std::string registry_layout(const obs::MetricsRegistry& reg) {
  std::ostringstream out;
  for (const std::string& name : reg.counter_names()) {
    out << "counter " << name << "\n  " << reg.help(name) << "\n";
  }
  for (const std::string& name : reg.gauge_names()) {
    out << "gauge " << name << "\n  " << reg.help(name) << "\n";
  }
  for (const std::string& name : reg.histogram_names()) {
    out << "histogram " << name << "\n  " << reg.help(name) << "\n  le";
    for (double bound : reg.find_histogram(name)->bounds()) {
      out << " " << std::setprecision(17) << bound;
    }
    out << "\n";
  }
  return out.str();
}

// The AERO server's Figure-1 counters plus the fabric counters every
// wiring site registers.
const std::string kAeroAndFabricCounters =
    "counter aero_analysis_permanent_failures_total\n"
    "  analysis triggers that exhausted their retry budget\n"
    "counter aero_analysis_runs_total\n"
    "  analysis flow runs started\n"
    "counter aero_analysis_superseded_triggers_total\n"
    "  scheduled analysis retries made obsolete by a newer trigger\n"
    "counter aero_analysis_triggers_total\n"
    "  analysis trigger evaluations that fired\n"
    "counter aero_deferred_triggers_total\n"
    "  triggers deferred because a circuit breaker was open\n"
    "counter aero_failed_runs_total\n"
    "  ingestion or analysis runs that failed\n"
    "counter aero_fetch_errors_total\n"
    "  upstream fetches that raised\n"
    "counter aero_ingestion_permanent_failures_total\n"
    "  ingestion triggers that exhausted their retry budget\n"
    "counter aero_ingestion_runs_total\n"
    "  ingestion flow runs started\n"
    "counter aero_polls_total\n"
    "  upstream source polls performed\n"
    "counter aero_retries_total\n"
    "  retry runs scheduled after a failure\n"
    "counter aero_stale_serves_total\n"
    "  serve_latest calls answered stale\n"
    "counter aero_superseded_triggers_total\n"
    "  triggers whose payload was replaced by fresher upstream data\n"
    "counter aero_updates_detected_total\n"
    "  polls whose payload checksum changed\n"
    "counter fabric_compute_tasks_failed_total\n"
    "  compute tasks that failed (outage, kill, walltime, error)\n"
    "counter fabric_compute_tasks_succeeded_total\n"
    "  compute tasks that ran to completion\n"
    "counter fabric_events_processed_total\n"
    "  events fired by the virtual-time loop\n"
    "counter fabric_flow_runs_succeeded_total\n"
    "  flow runs that completed every step\n"
    "counter fabric_timer_fires_total\n"
    "  periodic timer firings\n"
    "counter fabric_transfers_completed_total\n"
    "  transfers whose destination write completed and verified\n"
    "counter fabric_transfers_failed_total\n"
    "  transfers that ended in a terminal failure\n";

const std::string kServeCounters =
    "counter serve_cache_hits_total\n"
    "  lookups answered from a validated entry\n"
    "counter serve_cache_invalidations_total\n"
    "  entries invalidated by version bumps or degradation flips\n"
    "counter serve_cache_misses_total\n"
    "  lookups with no entry (origin fetched)\n"
    "counter serve_cache_revalidates_total\n"
    "  lookups whose entry was invalidated (origin re-fetched)\n";
const std::string kComputeLatencyHistogram =
    "histogram fabric_compute_task_latency_ms\n"
    "  submission-to-completion virtual latency per compute task (ms)\n"
    "  le 1000 10000 60000 600000 3600000 14400000\n";
const std::string kQueueWaitHistogram =
    "histogram fabric_job_queue_wait_ms\n"
    "  virtual queue wait per started batch job (ms)\n"
    "  le 1000 60000 600000 3600000 14400000 86400000\n";
const std::string kTransferBytesHistogram =
    "histogram fabric_transfer_bytes\n"
    "  payload size per completed transfer (bytes)\n"
    "  le 1000 10000 100000 1000000 10000000 100000000\n";

}  // namespace

TEST(RegistryLayout, PlatformWithSchedulerLoginAndBatchEndpoints) {
  osprey::core::OspreyPlatform platform;
  platform.add_scheduler("pbs", 4);
  platform.add_login_endpoint("login", 2);
  platform.add_batch_endpoint("batch", platform.scheduler("pbs"));
  EXPECT_EQ(registry_layout(platform.metrics()),
            kAeroAndFabricCounters + kComputeLatencyHistogram +
                kQueueWaitHistogram + kTransferBytesHistogram);
}

TEST(RegistryLayout, ShardPartition) {
  osprey::shard::PartitionConfig config;
  config.key = "feed0";
  osprey::shard::ShardPartition partition(config);
  EXPECT_EQ(registry_layout(partition.metrics()),
            kAeroAndFabricCounters + kServeCounters +
                kComputeLatencyHistogram + kTransferBytesHistogram);
}
