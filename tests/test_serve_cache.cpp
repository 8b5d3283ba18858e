/// Serving-tier correctness: version-bump invalidation (no entry
/// survives a DataVersion bump), revalidate-vs-miss accounting,
/// stale-reason propagation through cache hits during an injected
/// source outage, front-end auth/admission control, the front end's
/// queue/response-buffer contracts and allocation-free hits, the Zipf
/// guide table against an upper_bound reference, and a 16-seed
/// bit-identical replay of a Zipf flood under the chaos harness.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "aero/server.hpp"
#include "aero/source.hpp"
#include "fabric/fault.hpp"
#include "serve/cache.hpp"
#include "serve/frontend.hpp"
#include "serve/zipf.hpp"

namespace oa = osprey::aero;
namespace of = osprey::fabric;
namespace os = osprey::serve;
namespace ou = osprey::util;
using ou::kDay;
using ou::kHour;
using ou::kMinute;
using ou::kSecond;
using ou::Value;
using ou::ValueObject;

// Counts operator new calls while a scope asks for it, to prove the
// steady-state read path allocates nothing. Array and nothrow forms
// forward here; aligned forms keep their own (unused) definitions.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocations{0};

[[gnu::noinline]] void* counted_malloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
// Out of line, so the compiler does not pair a new-expression with free.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }

namespace {

/// Allocations made while this object lives.
class AllocationCount {
 public:
  AllocationCount() {
    g_allocations.store(0);
    g_count_allocations.store(true);
  }
  ~AllocationCount() { g_count_allocations.store(false); }
  std::uint64_t value() const { return g_allocations.load(); }
};

Value upper_transform(const Value& args) {
  std::string s = args.at("input").as_string();
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  ValueObject out;
  out["output"] = Value(s);
  return Value(std::move(out));
}

/// The contract every consumer leans on: reason is empty iff fresh.
void expect_reason_iff_stale(const oa::AeroServer::ServedEstimate& est,
                             const std::string& context) {
  EXPECT_EQ(est.stale, !est.reason.empty())
      << context << ": stale=" << est.stale << " reason='" << est.reason
      << "'";
}

}  // namespace

class ServeCacheTest : public ::testing::Test {
 protected:
  of::EventLoop loop;
  of::AuthService auth;
  of::TimerService timers{loop, auth};
  of::TransferService transfers{loop, auth, kSecond, 100.0e6};
  of::FlowsService flows{loop, auth};
  osprey::obs::MetricsRegistry metrics;
  oa::AeroServer server{loop, auth, timers, transfers, flows, "aero",
                        &metrics};
  of::StorageEndpoint eagle{"eagle", loop, auth};
  of::StorageEndpoint scratch{"scratch", loop, auth};
  of::ComputeEndpoint login{"login", loop, auth, 2};
  std::string transform_fn;

  void SetUp() override {
    eagle.create_collection("data", server.token());
    scratch.create_collection("staging", server.token());
    transform_fn =
        login.register_function("upper", upper_transform, 30 * kSecond);
  }

  oa::IngestionFlowSpec ingestion_spec(
      const std::string& name, std::shared_ptr<oa::DataSource> source) {
    oa::IngestionFlowSpec spec;
    spec.name = name;
    spec.source = std::move(source);
    spec.poll_period = kDay;
    spec.first_poll = 0;
    spec.compute = &login;
    spec.function_id = transform_fn;
    spec.staging = &scratch;
    spec.staging_collection = "staging";
    spec.storage = &eagle;
    spec.collection = "data";
    spec.base_path = name;
    return spec;
  }
};

TEST_F(ServeCacheTest, MissThenHitServesWithoutReQueryingTheOrigin) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "hello"}});
  auto handles = server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(kHour);

  os::ResultCache cache(server, metrics);
  std::uint64_t origin_before = server.stale_serves() + 0;  // baseline only
  (void)origin_before;
  std::uint64_t queries_before = server.db().query_count();

  os::ResultCache::Result first = cache.lookup(handles.output_uuid);
  EXPECT_EQ(first.outcome, os::CacheOutcome::kMiss);
  ASSERT_TRUE(first.estimate.version.has_value());
  EXPECT_EQ(first.estimate.version->version, 1);
  EXPECT_FALSE(first.estimate.stale);
  expect_reason_iff_stale(first.estimate, "miss");

  std::uint64_t queries_after_miss = server.db().query_count();
  EXPECT_GT(queries_after_miss, queries_before) << "miss must hit the origin";

  os::ResultCache::Result second = cache.lookup(handles.output_uuid);
  EXPECT_EQ(second.outcome, os::CacheOutcome::kHit);
  EXPECT_EQ(second.estimate.version->version, 1);
  EXPECT_EQ(server.db().query_count(), queries_after_miss)
      << "a hit must not query the metadata db";

  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.revalidates(), 0u);
}

TEST_F(ServeCacheTest, VersionBumpInvalidatesNoStaleEntrySurvives) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "v1"}, {kDay, "v2"}});
  auto handles = server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(kHour);

  os::ResultCache cache(server, metrics);
  EXPECT_EQ(cache.lookup(handles.output_uuid).outcome,
            os::CacheOutcome::kMiss);
  EXPECT_EQ(cache.lookup(handles.output_uuid).estimate.version->version, 1);

  // Day 2: the upstream payload changes and version 2 publishes. The
  // cached entry must not survive — the next lookup revalidates and
  // serves version 2; serving version 1 as a fresh hit would be the
  // stale-as-fresh bug the serving tier exists to prevent.
  loop.run_until(kDay + kHour);
  ASSERT_EQ(server.db().latest_version_number(handles.output_uuid), 2);

  os::ResultCache::Result after = cache.lookup(handles.output_uuid);
  EXPECT_EQ(after.outcome, os::CacheOutcome::kRevalidate);
  ASSERT_TRUE(after.estimate.version.has_value());
  EXPECT_EQ(after.estimate.version->version, 2);
  EXPECT_FALSE(after.estimate.stale);
  EXPECT_GE(cache.invalidations(), 1u);

  // Direct metadata-db registration (no flow involved) invalidates too.
  server.db().add_version(handles.output_uuid, std::string(64, 'b'), 2,
                          loop.now(), "eagle", "data", "flow-a/transformed");
  os::ResultCache::Result direct = cache.lookup(handles.output_uuid);
  EXPECT_EQ(direct.outcome, os::CacheOutcome::kRevalidate);
  EXPECT_EQ(direct.estimate.version->version, 3);
}

TEST_F(ServeCacheTest, ShardQualifierScopesEntriesAndRebindRequalifies) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "hello"}});
  auto handles = server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(kHour);

  os::ResultCache cache(server, metrics);
  cache.set_shard("region-a");
  EXPECT_EQ(cache.shard(), "region-a");

  os::ResultCache::Result first = cache.lookup(handles.output_uuid);
  EXPECT_EQ(first.outcome, os::CacheOutcome::kMiss);
  EXPECT_EQ(first.shard, "region-a");
  EXPECT_EQ(cache.lookup(handles.output_uuid).outcome, os::CacheOutcome::kHit);

  // Rebinding to a different shard must not serve the old shard's
  // entries as hits: the qualifier mismatch forces a revalidate even
  // though the version numbers agree.
  cache.rebind(server, "region-b");
  os::ResultCache::Result rebound = cache.lookup(handles.output_uuid);
  EXPECT_NE(rebound.outcome, os::CacheOutcome::kHit);
  ASSERT_TRUE(rebound.estimate.version.has_value());
  EXPECT_EQ(rebound.estimate.version->version, 1);
  EXPECT_EQ(rebound.shard, "region-b");
  EXPECT_EQ(cache.lookup(handles.output_uuid).outcome, os::CacheOutcome::kHit);
}

TEST_F(ServeCacheTest, RevalidateVsMissAccounting) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "v1"}});
  auto handles = server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(kHour);

  os::ResultCache cache(server, metrics);
  // First sight of each uuid is a miss; an invalidated entry is a
  // revalidate, never re-counted as a miss.
  EXPECT_EQ(cache.lookup(handles.output_uuid).outcome,
            os::CacheOutcome::kMiss);
  cache.invalidate(handles.output_uuid);
  EXPECT_EQ(cache.lookup(handles.output_uuid).outcome,
            os::CacheOutcome::kRevalidate);
  EXPECT_EQ(cache.lookup(handles.raw_uuid).outcome, os::CacheOutcome::kMiss);
  EXPECT_EQ(cache.lookup(handles.raw_uuid).outcome, os::CacheOutcome::kHit);

  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.revalidates(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.size(), 2u);

  // Invalidating an absent or already-invalid entry is a no-op.
  cache.invalidate("no-such-uuid");
  cache.invalidate(handles.output_uuid);
  cache.invalidate(handles.output_uuid);
  EXPECT_EQ(cache.invalidations(), 2u);
}

TEST_F(ServeCacheTest, SourceOutageStaleReasonPropagatesThroughCacheHits) {
  of::FaultPlan plan(7);
  plan.script_window(of::FaultKind::kSourceOutage, "flow-a", kDay, 3 * kDay);
  loop.set_fault_plan(&plan);

  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "hello"}});
  auto handles = server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(kHour);

  os::ResultCache cache(server, metrics);
  os::ResultCache::Result fresh = cache.lookup(handles.output_uuid);
  EXPECT_EQ(fresh.outcome, os::CacheOutcome::kMiss);
  EXPECT_FALSE(fresh.estimate.stale);

  // Day 1 poll lands in the outage window: the flow's products degrade
  // and the cached entry is invalidated by the degradation flip.
  loop.run_until(kDay + kHour);
  ASSERT_TRUE(server.degraded(handles.output_uuid));

  os::ResultCache::Result during = cache.lookup(handles.output_uuid);
  EXPECT_EQ(during.outcome, os::CacheOutcome::kRevalidate);
  ASSERT_TRUE(during.estimate.version.has_value()) << "last good survives";
  EXPECT_EQ(during.estimate.version->version, 1);
  EXPECT_TRUE(during.estimate.stale);
  EXPECT_NE(during.estimate.reason.find("outage"), std::string::npos)
      << "reason: " << during.estimate.reason;
  expect_reason_iff_stale(during.estimate, "during outage");

  // Cache HITS during the outage keep the staleness reason attached —
  // the cache must never launder a stale answer into a fresh one.
  os::ResultCache::Result hit = cache.lookup(handles.output_uuid);
  EXPECT_EQ(hit.outcome, os::CacheOutcome::kHit);
  EXPECT_TRUE(hit.estimate.stale);
  EXPECT_EQ(hit.estimate.reason, during.estimate.reason);

  // Day 3 poll: the source answers again, degradation lifts, and the
  // next lookup revalidates back to a fresh answer.
  loop.run_until(3 * kDay + kHour);
  EXPECT_FALSE(server.degraded(handles.output_uuid));
  os::ResultCache::Result after = cache.lookup(handles.output_uuid);
  EXPECT_EQ(after.outcome, os::CacheOutcome::kRevalidate);
  EXPECT_FALSE(after.estimate.stale);
  expect_reason_iff_stale(after.estimate, "after outage");
}

TEST_F(ServeCacheTest, FrontEndDeniesMissingScopeAndShedsOverload) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "hello"}});
  auto handles = server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(kHour);

  os::ResultCache cache(server, metrics);
  os::FrontEndConfig config;
  config.max_queue_depth = 4;
  os::FrontEnd frontend(loop, auth, cache, metrics, config);

  std::string reader = auth.issue_token("dash", {of::scopes::kServe});
  std::string intruder = auth.issue_token("intruder", {of::scopes::kCompute});

  std::vector<os::ServeResponse> responses;
  auto collect = [&](const os::ServeResponse& r) { responses.push_back(r); };

  // Wrong scope: denied synchronously, nothing queued.
  frontend.submit({handles.output_uuid, intruder, "intruder"}, collect);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].outcome, os::ServeOutcome::kDenied);
  EXPECT_EQ(frontend.queue_depth(), 0u);

  // Burst past capacity: one in service + 4 queued admit; the rest
  // complete immediately with the explicit shed outcome.
  for (int i = 0; i < 10; ++i) {
    frontend.submit({handles.output_uuid, reader, "dash"}, collect);
  }
  std::size_t shed_now = 0;
  for (const os::ServeResponse& r : responses) {
    if (r.outcome == os::ServeOutcome::kShed) ++shed_now;
  }
  EXPECT_EQ(shed_now, 5u);
  EXPECT_EQ(frontend.shed(), 5u);

  loop.run_until(kHour + kMinute);  // bounded: the poll timer repeats daily
  EXPECT_EQ(frontend.served(), 5u);
  EXPECT_EQ(frontend.denied(), 1u);
  ASSERT_EQ(responses.size(), 11u);

  // The admitted requests resolve to one miss + four hits, and every
  // served estimate obeys the reason-iff-stale contract.
  std::size_t hits = 0, misses = 0;
  for (const os::ServeResponse& r : responses) {
    if (r.outcome == os::ServeOutcome::kHit) ++hits;
    if (r.outcome == os::ServeOutcome::kMiss) ++misses;
    if (r.outcome == os::ServeOutcome::kHit ||
        r.outcome == os::ServeOutcome::kMiss ||
        r.outcome == os::ServeOutcome::kRevalidate) {
      expect_reason_iff_stale(r.estimate, "front-end response");
      EXPECT_GE(r.latency(), 0);
    }
  }
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(hits, 4u);
}

// --- front-end queue and response-buffer contracts ------------------------

TEST_F(ServeCacheTest, FrontEndDoneThatSubmitsIsServedBehindWaitingReads) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "hello"}});
  auto handles = server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(kHour);

  os::ResultCache cache(server, metrics);
  os::FrontEndConfig config;
  config.max_queue_depth = 8;
  os::FrontEnd frontend(loop, auth, cache, metrics, config);
  const std::string reader = auth.issue_token("dash", {of::scopes::kServe});

  std::vector<std::string> order;
  std::vector<of::SimTime> completed;
  auto record = [&](const std::string& tag) {
    return [&, tag](const os::ServeResponse& r) {
      order.push_back(tag);
      completed.push_back(r.completed_at);
    };
  };
  // a starts at once (idle server); b and c wait. a's callback submits
  // d while b and c are still waiting: d goes behind them.
  frontend.submit({handles.output_uuid, reader, "dash"},
                  [&](const os::ServeResponse& r) {
                    record("a")(r);
                    frontend.submit({handles.raw_uuid, reader, "dash"},
                                    record("d"));
                    EXPECT_EQ(frontend.queue_depth(), 2u);  // c, d
                  });
  EXPECT_EQ(frontend.queue_depth(), 0u);
  frontend.submit({handles.output_uuid, reader, "dash"}, record("b"));
  frontend.submit({handles.raw_uuid, reader, "dash"}, record("c"));
  EXPECT_EQ(frontend.queue_depth(), 2u);

  loop.run_until(kHour + kMinute);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_TRUE(std::is_sorted(completed.begin(), completed.end()));
  EXPECT_EQ(frontend.served(), 4u);
  EXPECT_EQ(frontend.queue_depth(), 0u);
}

TEST_F(ServeCacheTest, FrontEndResponseStaysIntactWhileItsCallbackSubmits) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "hello"}});
  auto handles = server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(kHour);

  os::ResultCache cache(server, metrics);
  os::FrontEnd frontend(loop, auth, cache, metrics);
  const std::string reader = auth.issue_token("dash", {of::scopes::kServe});
  const std::string raw_checksum =
      cache.lookup(handles.raw_uuid).estimate.version->checksum;
  const std::string out_checksum =
      cache.lookup(handles.output_uuid).estimate.version->checksum;
  ASSERT_NE(raw_checksum, out_checksum);

  // Each callback submits the other object's read, which starts service
  // at once and so decides its answer while this response is still held.
  int rounds = 0;
  std::function<void(const std::string&, const std::string&)> read;
  read = [&](const std::string& uuid, const std::string& checksum) {
    frontend.submit({uuid, reader, "dash"}, [&, uuid,
                                             checksum](const os::ServeResponse&
                                                           r) {
      ASSERT_TRUE(r.estimate.version.has_value());
      EXPECT_EQ(r.estimate.version->checksum, checksum);
      const os::ServeResponse before = r;
      if (++rounds < 6) {
        const bool raw = uuid == handles.raw_uuid;
        read(raw ? handles.output_uuid : handles.raw_uuid,
             raw ? out_checksum : raw_checksum);
        EXPECT_EQ(frontend.queue_depth(), 0u);  // started, not queued
      }
      EXPECT_EQ(r.outcome, before.outcome);
      EXPECT_EQ(r.enqueued_at, before.enqueued_at);
      EXPECT_EQ(r.completed_at, before.completed_at);
      ASSERT_TRUE(r.estimate.version.has_value());
      EXPECT_EQ(r.estimate.version->checksum, checksum);
      EXPECT_EQ(r.estimate.version->path, before.estimate.version->path);
      EXPECT_EQ(r.estimate.stale, before.estimate.stale);
      EXPECT_EQ(r.estimate.reason, before.estimate.reason);
    });
  };
  read(handles.output_uuid, out_checksum);
  loop.run_until(kHour + kMinute);
  EXPECT_EQ(rounds, 6);
  EXPECT_EQ(frontend.served(), 6u);
}

TEST_F(ServeCacheTest, FrontEndZeroQueueDepthShedsEveryRead) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "hello"}});
  auto handles = server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(kHour);

  os::ResultCache cache(server, metrics);
  os::FrontEndConfig config;
  config.max_queue_depth = 0;
  os::FrontEnd frontend(loop, auth, cache, metrics, config);
  const std::string reader = auth.issue_token("dash", {of::scopes::kServe});

  const std::size_t pending = loop.pending();
  std::vector<os::ServeOutcome> outcomes;
  for (int i = 0; i < 5; ++i) {
    // Even the first read, at an idle server, is shed.
    frontend.submit({handles.output_uuid, reader, "dash"},
                    [&](const os::ServeResponse& r) {
                      outcomes.push_back(r.outcome);
                      EXPECT_EQ(r.latency(), 0);
                    });
  }
  EXPECT_EQ(outcomes, std::vector<os::ServeOutcome>(5, os::ServeOutcome::kShed));
  EXPECT_EQ(loop.pending(), pending) << "a shed read scheduled service";
  loop.run_until(kHour + kMinute);
  EXPECT_EQ(frontend.shed(), 5u);
  EXPECT_EQ(frontend.served(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses() + cache.revalidates(), 0u);
}

TEST_F(ServeCacheTest, FrontEndIdleStartKeepsQueueGaugeAndLatencyHistogram) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "hello"}});
  auto handles = server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(kHour);

  os::ResultCache cache(server, metrics);
  os::FrontEndConfig config;
  os::FrontEnd frontend(loop, auth, cache, metrics, config);
  const std::string reader = auth.issue_token("dash", {of::scopes::kServe});
  const osprey::obs::Gauge* depth = metrics.find_gauge("serve_queue_depth");
  const osprey::obs::Histogram* latency =
      metrics.find_histogram("serve_latency_ms");
  ASSERT_NE(depth, nullptr);
  ASSERT_NE(latency, nullptr);

  // The idle read leaves the gauge where entering the queue and leaving
  // it at once did: 0. Reads behind it raise it; each dequeue lowers it.
  frontend.submit({handles.output_uuid, reader, "dash"}, {});
  EXPECT_EQ(depth->value(), 0.0);
  frontend.submit({handles.output_uuid, reader, "dash"}, {});
  EXPECT_EQ(depth->value(), 1.0);
  frontend.submit({handles.raw_uuid, reader, "dash"}, {});
  EXPECT_EQ(depth->value(), 2.0);
  loop.run_until(kHour + config.miss_service_time);
  EXPECT_EQ(depth->value(), 1.0);
  loop.run_until(kHour + kMinute);
  EXPECT_EQ(depth->value(), 0.0);

  // Latency counts from arrival: a miss (20), a hit queued behind it
  // (20 + 1) and a miss queued behind both (21 + 20).
  EXPECT_EQ(latency->count(), 3u);
  EXPECT_EQ(latency->sum(), 20.0 + 21.0 + 41.0);
  EXPECT_EQ(latency->bucket_counts(),
            (std::vector<std::uint64_t>{0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0,
                                        0}));

  // A later idle read observes only its service time.
  frontend.submit({handles.raw_uuid, reader, "dash"}, {});
  EXPECT_EQ(depth->value(), 0.0);
  loop.run_until(kHour + 2 * kMinute);
  EXPECT_EQ(latency->count(), 4u);
  EXPECT_EQ(latency->sum(), 20.0 + 21.0 + 41.0 + 1.0);
}

TEST_F(ServeCacheTest, FrontEndSteadyStateHitAllocatesNothing) {
  auto source = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "hello"}});
  auto handles = server.register_ingestion(ingestion_spec("flow-a", source));
  loop.run_until(kHour);

  os::ResultCache cache(server, metrics);
  os::FrontEnd frontend(loop, auth, cache, metrics);
  const std::string reader = auth.issue_token("dash", {of::scopes::kServe});

  constexpr int kWarm = 8, kReads = 400;
  std::vector<os::ServeRequest> requests;
  for (int i = 0; i < kWarm + kReads; ++i) {
    requests.push_back({i % 4 == 3 ? handles.raw_uuid : handles.output_uuid,
                        reader, "dash"});
  }
  std::uint64_t answered = 0;
  const os::FrontEnd::Callback done = [&answered](const os::ServeResponse&) {
    ++answered;
  };
  // Two reads per round: one starts at an idle server, one waits behind
  // it in the ring.
  auto round = [&](int i) {
    frontend.submit(std::move(requests[i]), done);
    frontend.submit(std::move(requests[i + 1]), done);
    loop.run_until(loop.now() + kSecond);  // both answered
  };
  for (int i = 0; i < kWarm; i += 2) round(i);  // misses fill the buffers
  const std::uint64_t hits_before = cache.hits();
  std::uint64_t allocations = 0;
  {
    const AllocationCount count;
    for (int i = kWarm; i < kWarm + kReads; i += 2) round(i);
    allocations = count.value();
  }
  EXPECT_EQ(cache.hits() - hits_before, static_cast<std::uint64_t>(kReads));
  EXPECT_EQ(answered, static_cast<std::uint64_t>(kWarm + kReads));
  EXPECT_EQ(allocations, 0u);
}

// --- Zipf guide table ------------------------------------------------------

namespace {

std::uint64_t reference_mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The Zipf draw by std::upper_bound over the same CDF, the search the
/// guide table stands in for.
class UpperBoundZipf {
 public:
  UpperBoundZipf(std::size_t n, double exponent, std::uint64_t seed)
      : seed_(seed), cdf_(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
    cdf_.back() = 1.0;
  }
  std::size_t rank(double u) const {
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<std::size_t>(it - cdf_.begin());
  }
  std::size_t item(std::uint64_t i) const {
    const std::uint64_t bits = reference_mix64(seed_ ^ reference_mix64(i));
    return rank(static_cast<double>(bits >> 11) * 0x1.0p-53);
  }
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::uint64_t seed_;
  std::vector<double> cdf_;
};

}  // namespace

TEST(ZipfTrace, GuideTableMatchesUpperBoundEverywhere) {
  std::size_t rounded_up = 0;  // draws whose bucket index rounded up
  for (std::size_t n : {1, 2, 3, 96, 1000}) {
    for (double exponent : {0.0, 1.0, 2.5}) {
      const std::uint64_t seed = 977 * n + static_cast<std::uint64_t>(exponent * 10);
      const os::ZipfTrace zipf(n, exponent, seed);
      const UpperBoundZipf ref(n, exponent, seed);
      ASSERT_EQ(zipf.num_items(), n);
      for (std::uint64_t i = 0; i < 1'000'000; ++i) {
        ASSERT_EQ(zipf.item(i), ref.item(i))
            << "n=" << n << " s=" << exponent << " i=" << i;
      }
      // Every bucket edge and every CDF step, with both neighbours.
      std::vector<double> points;
      const double buckets = static_cast<double>(4 * n);
      for (std::size_t b = 0; b <= 4 * n; ++b) {
        points.push_back(static_cast<double>(b) / buckets);
      }
      points.insert(points.end(), ref.cdf().begin(), ref.cdf().end());
      for (double p : points) {
        for (double u : {std::nextafter(p, 0.0), p, std::nextafter(p, 2.0)}) {
          if (!(u >= 0.0 && u < 1.0)) continue;
          ASSERT_EQ(zipf.rank(u), ref.rank(u))
              << "n=" << n << " s=" << exponent << " u=" << u;
          const auto b = static_cast<std::size_t>(u * buckets);
          if (b > 0 && u < static_cast<double>(b) / buckets) ++rounded_up;
        }
      }
    }
  }
  // The sweep reached draws whose scaled value rounds into the next
  // bucket, where the guide entry starts past the answer.
  EXPECT_GT(rounded_up, 0u);
  EXPECT_THROW(os::ZipfTrace(4, 1.0, 1).rank(1.0), ou::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Chaos replay: the whole serving stack — polls, an injected outage,
// Zipf flood through the front end — replays bit-identically per seed.
// ---------------------------------------------------------------------------

namespace {

/// One self-contained world: two feeds, a scripted mid-run source
/// outage, and a ~2k-request Zipf flood over the four data objects.
/// Returns a digest of every response plus final counters and the
/// incident log; byte-identical digests mean bit-identical replay.
std::string run_flood_world(std::uint64_t seed) {
  of::EventLoop loop;
  of::AuthService auth;
  of::TimerService timers{loop, auth};
  of::TransferService transfers{loop, auth, kSecond, 100.0e6};
  of::FlowsService flows{loop, auth};
  osprey::obs::MetricsRegistry metrics;
  oa::AeroServer server{loop, auth, timers, transfers, flows, "aero",
                        &metrics};
  of::StorageEndpoint eagle{"eagle", loop, auth};
  of::StorageEndpoint scratch{"scratch", loop, auth};
  of::ComputeEndpoint login{"login", loop, auth, 2};
  eagle.create_collection("data", server.token());
  scratch.create_collection("staging", server.token());
  std::string fn =
      login.register_function("upper", upper_transform, 30 * kSecond);

  of::FaultPlan plan(seed);
  plan.script_window(of::FaultKind::kSourceOutage, "feed-b", 9 * kDay,
                     11 * kDay);
  loop.set_fault_plan(&plan);

  auto make_spec = [&](const std::string& name,
                       std::shared_ptr<oa::DataSource> source) {
    oa::IngestionFlowSpec spec;
    spec.name = name;
    spec.source = std::move(source);
    spec.poll_period = kDay;
    spec.first_poll = 0;
    spec.compute = &login;
    spec.function_id = fn;
    spec.staging = &scratch;
    spec.staging_collection = "staging";
    spec.storage = &eagle;
    spec.collection = "data";
    spec.base_path = name;
    return spec;
  };

  auto source_a = std::make_shared<oa::ScriptedSource>(
      "https://feed/a", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "a1"}, {6 * kDay, "a2"}, {10 * kDay, "a3"}});
  auto source_b = std::make_shared<oa::ScriptedSource>(
      "https://feed/b", std::vector<std::pair<of::SimTime, std::string>>{
                            {0, "b1"}, {8 * kDay, "b2"}});
  auto ha = server.register_ingestion(make_spec("feed-a", source_a));
  auto hb = server.register_ingestion(make_spec("feed-b", source_b));

  os::ResultCache cache(server, metrics);
  os::FrontEndConfig config;
  config.max_queue_depth = 32;
  os::FrontEnd frontend(loop, auth, cache, metrics, config);
  std::string reader = auth.issue_token("dash", {of::scopes::kServe});

  std::vector<std::string> objects = {ha.raw_uuid, ha.output_uuid,
                                      hb.raw_uuid, hb.output_uuid};
  os::ZipfTrace zipf(objects.size(), 1.1, seed);

  std::ostringstream digest;
  constexpr int kRequests = 2000;
  for (int i = 0; i < kRequests; ++i) {
    // Spread the flood over days 7..13, through the outage window.
    of::SimTime at = 7 * kDay + static_cast<of::SimTime>(i) * 311 * kSecond;
    std::size_t obj = zipf.item(static_cast<std::uint64_t>(i));
    loop.schedule_at(at, [&, i, obj] {
      frontend.submit(
          {objects[obj], reader, "dash"},
          [&digest, i, obj](const os::ServeResponse& r) {
            digest << i << ' ' << obj << ' '
                   << os::serve_outcome_name(r.outcome) << ' '
                   << (r.estimate.version ? r.estimate.version->version : 0)
                   << ' ' << r.estimate.stale << ' ' << r.estimate.reason
                   << ' ' << r.completed_at << '\n';
            // Acceptance invariant, checked on every flood response.
            EXPECT_EQ(r.estimate.stale, !r.estimate.reason.empty());
          });
    });
  }
  loop.run_until(15 * kDay);

  digest << "hits=" << cache.hits() << " misses=" << cache.misses()
         << " revalidates=" << cache.revalidates()
         << " invalidations=" << cache.invalidations()
         << " served=" << frontend.served() << " shed=" << frontend.shed()
         << " stale_serves=" << server.stale_serves() << '\n';
  digest << plan.log().to_string();
  return digest.str();
}

}  // namespace

class ServeFloodReplay : public ::testing::TestWithParam<int> {};

TEST_P(ServeFloodReplay, FloodTraceReplaysBitIdentically) {
  std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 0x9e3779b9ULL + 1;
  std::string first = run_flood_world(seed);
  std::string second = run_flood_world(seed);
  EXPECT_EQ(first, second) << "seed " << seed << " diverged";
  // The flood actually exercised the cache and the degradation path.
  EXPECT_NE(first.find("hit"), std::string::npos);
  EXPECT_NE(first.find("revalidate"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, ServeFloodReplay,
                         ::testing::Range(0, 16));
