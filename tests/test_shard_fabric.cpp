// ShardedFabric unit + integration tests: the deterministic mailbox
// total order, campaign registration fan-out, aggregation round
// trips, shard-qualified serving, per-partition WAL layout with
// crash-recovery, fault-plan forking, and the merged observability
// artifacts. The 16-seed chaos replay sweep lives in
// test_shard_replay.cpp; this file proves the building blocks.

#include "shard/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/usecase_shard.hpp"
#include "obs/export.hpp"
#include "shard/coordinator.hpp"
#include "shard/mailbox.hpp"
#include "util/durable_fs.hpp"
#include "util/sim_time.hpp"

namespace sh = osprey::shard;
namespace ou = osprey::util;
using osprey::util::kDay;

// --- mailbox ---------------------------------------------------------------

TEST(ShardMailbox, EnvelopeOrderIsTickThenOriginThenSeq) {
  sh::Envelope a, b;
  a.tick = 1;
  b.tick = 2;
  EXPECT_TRUE(sh::envelope_before(a, b));
  b.tick = 1;
  a.origin = 1;
  b.origin = 2;
  EXPECT_TRUE(sh::envelope_before(a, b));
  b.origin = 1;
  a.seq = 3;
  b.seq = 7;
  EXPECT_TRUE(sh::envelope_before(a, b));
  EXPECT_FALSE(sh::envelope_before(b, a));
  EXPECT_FALSE(sh::envelope_before(a, a));
}

namespace {

std::vector<sh::Envelope> drained(sh::Outbox& outbox) {
  std::vector<sh::Envelope> out;
  outbox.drain_into(out);
  return out;
}

}  // namespace

TEST(ShardMailbox, OutboxStampsAreSeededAndReplayable) {
  sh::Outbox a(3, 42), b(3, 42), c(3, 43), d(4, 42);
  a.post(1, "x", sh::AggregateInput{});
  b.post(1, "x", sh::AggregateInput{});
  c.post(1, "x", sh::AggregateInput{});
  d.post(1, "x", sh::AggregateInput{});
  std::uint64_t sa = drained(a)[0].stamp;
  EXPECT_EQ(sa, drained(b)[0].stamp);   // same (origin, seed): identical
  EXPECT_NE(sa, drained(c)[0].stamp);   // different seed: distinct
  EXPECT_NE(sa, drained(d)[0].stamp);   // different origin: distinct
}

TEST(ShardMailbox, TopicNamesTheBody) {
  sh::Envelope env;
  env.body = sh::RegisterFeed{};
  EXPECT_EQ(sh::topic(env), "register-feed");
  env.body = sh::RegisterAggregate{};
  EXPECT_EQ(sh::topic(env), "register-aggregate");
  env.body = sh::VersionReport{};
  EXPECT_EQ(sh::topic(env), "version");
  env.body = sh::AggregateInput{};
  EXPECT_EQ(sh::topic(env), "aggregate-input");
}

TEST(ShardMailbox, BarrierBatchIsTotalOrderAcrossOrigins) {
  // Outboxes drained in origin order, with some that posted nothing,
  // concatenate into the (tick, origin, seq) order without a merge.
  sh::Outbox p1(1, 7), p2(2, 7), p3(3, 7), p4(4, 7);
  p3.post(5, "", sh::AggregateInput{"c"});
  p1.post(5, "", sh::AggregateInput{"a"});
  p1.post(5, "", sh::AggregateInput{"b"});
  std::vector<sh::Envelope> batch;
  for (sh::Outbox* outbox : {&p1, &p2, &p3, &p4}) outbox->drain_into(batch);
  EXPECT_NO_THROW(sh::check_barrier_order(batch));
  ASSERT_EQ(batch.size(), 3u);
  const char* expected[] = {"a", "b", "c"};
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(std::get<sh::AggregateInput>(batch[i].body).json, expected[i]);
  }
  EXPECT_EQ(batch[0].origin, 1u);
  EXPECT_EQ(batch[1].seq, 1u);
  EXPECT_EQ(batch[2].origin, 3u);

  // Drained outboxes start over; a batch that mixes ticks across
  // origins, or drains origins out of order, fails the check.
  batch.clear();
  p2.post(5, "", sh::AggregateInput{});
  p1.post(6, "", sh::AggregateInput{});
  for (sh::Outbox* outbox : {&p1, &p2, &p3, &p4}) outbox->drain_into(batch);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_THROW(sh::check_barrier_order(batch), ou::Error);
  batch.clear();
  p1.post(6, "", sh::AggregateInput{});
  p2.post(6, "", sh::AggregateInput{});
  for (sh::Outbox* outbox : {&p2, &p1}) outbox->drain_into(batch);
  EXPECT_THROW(sh::check_barrier_order(batch), ou::Error);
}

TEST(ShardMailbox, StableHashAndShardPlacement) {
  EXPECT_EQ(sh::stable_key_hash("feed0"), sh::stable_key_hash("feed0"));
  EXPECT_NE(sh::stable_key_hash("feed0"), sh::stable_key_hash("feed1"));
  for (int f = 0; f < 64; ++f) {
    std::size_t shard = sh::shard_of("feed" + std::to_string(f), 8);
    EXPECT_LT(shard, 8u);
    EXPECT_EQ(shard, sh::shard_of("feed" + std::to_string(f), 8));
  }
}

TEST(ShardFault, ForkIsDeterministicAndPerSaltIndependent) {
  osprey::fabric::FaultPlan master(99);
  master.set_rate(osprey::fabric::FaultKind::kTransferDrop, 0.25);
  osprey::fabric::FaultPlan f1 = master.fork(1);
  osprey::fabric::FaultPlan f1b = master.fork(1);
  osprey::fabric::FaultPlan f2 = master.fork(2);
  EXPECT_EQ(f1.seed(), f1b.seed());
  EXPECT_NE(f1.seed(), f2.seed());
  EXPECT_NE(f1.seed(), master.seed());
  // Config is carried over; counters and log are fresh.
  EXPECT_EQ(f1.injected_total(), 0u);
  EXPECT_EQ(f1.log().size(), 0u);
}

// --- coordinator rounds ----------------------------------------------------

namespace {

/// Full-scan model of the coordinator's round logic: after every
/// analysis report of an aggregating campaign, scan all members; when
/// each has advanced past the version the last round consumed, emit the
/// round payload the hub must receive.
struct RoundOracle {
  struct Member {
    std::string feed;
    int latest = 0;
    int consumed = 0;
    std::string uuid;
    std::string checksum;
  };
  struct Campaign {
    std::string name;
    bool aggregate = false;
    std::vector<Member> members;
    std::uint64_t rounds = 0;
    std::uint64_t aggregates = 0;
  };
  std::vector<Campaign> campaigns;
  std::vector<std::pair<std::string, std::string>> posted;  // dest, payload

  void report(const sh::VersionReport& report) {
    if (report.kind == sh::VersionKind::kAggregate) {
      for (Campaign& c : campaigns) {
        if (sh::Coordinator::hub_key(c.name) == report.partition) {
          ++c.aggregates;
        }
      }
      return;
    }
    for (Campaign& c : campaigns) {
      for (Member& m : c.members) {
        if (m.feed != report.feed) continue;
        m.latest = report.version;
        m.uuid = report.uuid;
        m.checksum = report.checksum;
        if (c.aggregate) scan(c);
        return;
      }
    }
  }

  void scan(Campaign& c) {
    for (const Member& m : c.members) {
      if (m.latest <= m.consumed) return;
    }
    ++c.rounds;
    ou::ValueArray inputs;
    for (Member& m : c.members) {
      m.consumed = m.latest;
      ou::ValueObject input;
      input["feed"] = ou::Value(m.feed);
      input["uuid"] = ou::Value(m.uuid);
      input["version"] = ou::Value(static_cast<std::int64_t>(m.latest));
      input["checksum"] = ou::Value(m.checksum);
      inputs.emplace_back(std::move(input));
    }
    ou::ValueObject payload;
    payload["campaign"] = ou::Value(c.name);
    payload["round"] = ou::Value(static_cast<std::int64_t>(c.rounds));
    payload["inputs"] = ou::Value(std::move(inputs));
    posted.emplace_back(sh::Coordinator::hub_key(c.name),
                        ou::Value(std::move(payload)).to_json());
  }
};

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t x = (state += 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

TEST(ShardCoordinator, RoundDispatchMatchesFullScanOracle) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    std::uint64_t rng = 0xC00D + seed;
    sh::Coordinator coord(seed);
    RoundOracle oracle;
    // Two campaigns: "agg" aggregates across its members, "solo" does
    // not, so its reports must never dispatch a round.
    const int agg_members = 2 + static_cast<int>(seed % 5);
    for (int c = 0; c < 2; ++c) {
      sh::CampaignSpec spec;
      spec.name = c == 0 ? "agg" : "solo";
      spec.aggregate = c == 0;
      RoundOracle::Campaign model{spec.name, spec.aggregate, {}, 0, 0};
      for (int m = 0; m < (c == 0 ? agg_members : 3); ++m) {
        sh::FeedSpec feed;
        feed.name = spec.name + "-f" + std::to_string(m);
        spec.feeds.push_back(feed);
        model.members.push_back({feed.name, 0, 0, {}, {}});
      }
      coord.register_campaign(spec);
      oracle.campaigns.push_back(std::move(model));
    }
    coord.collect();  // registration fan-out is not under test here

    std::vector<int> next_version(agg_members + 3, 0);
    std::uint64_t rounds_seen = 0;
    for (std::uint64_t tick = 1; tick <= 60; ++tick) {
      coord.begin_tick(tick, tick * 1000);
      std::vector<sh::Envelope> batch;
      for (std::uint64_t n = splitmix(rng) % 6; n > 0; --n) {
        const std::uint64_t pick = splitmix(rng) % 100;
        sh::VersionReport report;
        if (pick < 8) {
          report.partition = sh::Coordinator::hub_key(
              (splitmix(rng) % 2 == 0) ? "agg" : "solo");
          report.kind = sh::VersionKind::kAggregate;
          report.uuid = "hub-uuid";
          report.version = static_cast<int>(tick);
        } else {
          // Members advance in a random order; some report the same
          // version again or skip ahead, and a few step back.
          const int slot =
              static_cast<int>(splitmix(rng) % next_version.size());
          const bool agg = slot < agg_members;
          const std::string feed =
              agg ? "agg-f" + std::to_string(slot)
                  : "solo-f" + std::to_string(slot - agg_members);
          const std::uint64_t step = splitmix(rng) % 10;
          int& v = next_version[static_cast<std::size_t>(slot)];
          if (step < 5) {
            v += 1;
          } else if (step < 7) {
            v += 3;
          } else if (step == 9 && v > 1) {
            v -= 1;
          }
          report.partition = feed;
          report.feed = feed;
          report.kind = sh::VersionKind::kAnalysis;
          report.uuid = feed + "-u" + std::to_string(v);
          report.version = v;
        }
        // Escaped characters in the checksum exercise the round
        // writer's string escaping.
        report.checksum = "sum-" + std::to_string(pick) +
                          (pick % 7 == 0 ? "\"q\\\n\x01" : "");
        report.timestamp = static_cast<ou::SimTime>(tick);
        oracle.report(report);
        sh::Envelope env;
        env.tick = tick;
        env.origin = 1;
        env.body = std::move(report);
        batch.push_back(std::move(env));
      }
      coord.deliver(batch);

      std::vector<sh::Envelope> out = coord.collect();
      ASSERT_EQ(out.size(), oracle.posted.size())
          << "seed " << seed << " tick " << tick;
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].tick, tick);
        EXPECT_EQ(sh::topic(out[i]), "aggregate-input");
        EXPECT_EQ(out[i].dest, oracle.posted[i].first);
        // The round's directly written JSON is byte for byte what
        // Value::to_json writes for the oracle's tree.
        EXPECT_EQ(std::get<sh::AggregateInput>(out[i].body).json,
                  oracle.posted[i].second)
            << "seed " << seed << " tick " << tick;
      }
      rounds_seen += out.size();
      oracle.posted.clear();
    }
    EXPECT_EQ(coord.rounds_dispatched("agg"), oracle.campaigns[0].rounds)
        << "seed " << seed;
    EXPECT_EQ(coord.rounds_dispatched("agg"), rounds_seen);
    EXPECT_GT(rounds_seen, 0u) << "seed " << seed;
    EXPECT_EQ(coord.rounds_dispatched("solo"), 0u);
    EXPECT_EQ(coord.aggregates_published("agg"),
              oracle.campaigns[0].aggregates);
    EXPECT_EQ(coord.aggregates_published("solo"),
              oracle.campaigns[1].aggregates);
  }
}

// --- the hub's round read --------------------------------------------------

namespace {

/// The hub's output for `text` through the tree-building read it
/// replaced, or nullopt where that read throws.
std::optional<std::string> tree_read(const std::string& text) {
  try {
    ou::Value round = ou::Value::parse_json(text);
    return "aggregated:round" + std::to_string(round.at("round").as_int()) +
           ":" + std::to_string(round.at("inputs").size());
  } catch (const ou::Error&) {
    return std::nullopt;
  }
}

/// sh::hub_aggregate's output for `text`, or nullopt where it throws.
std::optional<std::string> hub_read(const std::string& text) {
  ou::ValueObject args;
  args["input"] = ou::Value(text);
  try {
    return sh::hub_aggregate(ou::Value(std::move(args)))
        .at("output")
        .as_string();
  } catch (const ou::Error&) {
    return std::nullopt;
  }
}

/// A round as the coordinator writes it, members named by `feed_name`.
std::string round_json(int members, std::int64_t number,
                       const std::function<std::string(int)>& feed_name) {
  ou::ValueArray inputs;
  for (int m = 0; m < members; ++m) {
    ou::ValueObject input;
    input["feed"] = ou::Value(feed_name(m));
    input["uuid"] = ou::Value(std::string("u-").append(std::to_string(m)));
    input["version"] = ou::Value(static_cast<std::int64_t>(m % 5 + 1));
    input["checksum"] =
        ou::Value(std::string("c").append(std::to_string(m * 31)));
    inputs.emplace_back(std::move(input));
  }
  ou::ValueObject round;
  round["campaign"] = ou::Value("national");
  round["round"] = ou::Value(number);
  round["inputs"] = ou::Value(std::move(inputs));
  return ou::Value(std::move(round)).to_json();
}

}  // namespace

TEST(ShardPartition, RoundReadMatchesValueParse) {
  std::vector<std::string> cases;
  cases.push_back(round_json(1500, 12, [](int m) {
    return "feed" + std::to_string(m);
  }));
  // Feed names that need escaping: quotes, backslashes, control
  // characters, and bytes to_json writes as \u escapes.
  const std::string escaped = round_json(6, 3, [](int m) {
    const std::string odd[] = {"a\"b", "back\\slash", "tab\tnl\n",
                               std::string("nul\0x", 5), "\x01\x1f", "/"};
    return odd[m];
  });
  cases.push_back(escaped);
  cases.push_back(round_json(0, 1, [](int) { return std::string(); }));
  cases.insert(
      cases.end(),
      {
          // Whitespace between every token.
          " {\n\t\"campaign\" : \"c\" ,\r\n \"inputs\" : [ { \"feed\" : "
          "\"f\" } , { } ] , \"round\" :\t7 }\n ",
          "{\"round\":2,\"inputs\":[]}",
          "{\"inputs\":[1,\"two\",[3],{\"four\":4},null,true,false],"
          "\"round\":5}",
          // Escapes the coordinator never writes, keys included.
          "{\"r\\u006fund\":4,\"inputs\":[\"\\u00e9\\u20ac\\/\\b\\f\"]}",
          "{\"round\":1,\"inputs\":[{\"feed\":\"\\uD83D\"}]}",
          // A repeated key keeps its last value; an object counts its
          // distinct keys.
          "{\"round\":1,\"round\":9,\"inputs\":[1],\"inputs\":[1,2]}",
          "{\"round\":1,\"inputs\":{\"a\":1,\"a\":2,\"b\":[]}}",
          "{\"round\":1,\"inputs\":{}}",
          // Numbers as the parser reads them.
          "{\"round\":3.0,\"inputs\":[]}",
          "{\"round\":-0.0,\"inputs\":[]}",
          "{\"round\":1e2,\"inputs\":[]}",
          "{\"round\":+5,\"inputs\":[]}",
          "{\"round\":99999999999999999999,\"inputs\":[]}",
          "{\"round\":1,\"inputs\":[1e400,-1e-400,0.5]}",
          // Inputs today's read rejects.
          "{\"round\":2.5,\"inputs\":[]}",
          "{\"round\":\"7\",\"inputs\":[]}",
          "{\"round\":[7],\"inputs\":[]}",
          "{\"round\":{},\"inputs\":[]}",
          "{\"round\":null,\"inputs\":[]}",
          "{\"inputs\":[]}",
          "{\"round\":1}",
          "{\"round\":1,\"inputs\":3}",
          "{\"round\":1,\"inputs\":\"abc\"}",
          "{\"round\":1,\"inputs\":[]} x",
          "{\"round\":1,\"inputs\":[1,]}",
          "{\"round\":1,\"inputs\":[\"\\x\"]}",
          "{\"round\":1,\"inputs\":[\"\\u12g4\"]}",
          "{\"round\":1,\"inputs\":[1-2]}",
          "{\"round\":1,\"inputs\":[tru]}",
          "[{\"round\":1,\"inputs\":[]}]",
          "\"round\"",
          "17",
          "",
          "   ",
          "{",
          "{}",
      });

  // 1000 seeded truncations and single-byte mutations of the escaped
  // round.
  std::uint64_t rng = 0x40B5;
  const std::string alphabet = "{}[]:,\"\\ \t\n0123456789.eE+-untrfalsx\x01";
  for (int i = 0; i < 1000; ++i) {
    std::string text = escaped;
    const std::size_t at = splitmix(rng) % text.size();
    if (i % 4 == 0) {
      text.resize(at);
    } else if (i % 4 == 1) {
      text[at] = static_cast<char>(splitmix(rng) % 256);
    } else {
      text[at] = alphabet[splitmix(rng) % alphabet.size()];
    }
    cases.push_back(std::move(text));
  }

  std::size_t accepted = 0;
  for (const std::string& text : cases) {
    const std::optional<std::string> want = tree_read(text);
    EXPECT_EQ(hub_read(text), want) << "input: " << text.substr(0, 200);
    if (want) ++accepted;
  }
  EXPECT_EQ(tree_read(cases[0]), "aggregated:round12:1500");
  EXPECT_EQ(hub_read(cases[2]), "aggregated:round1:0");
  // A round number no int64 holds is rejected, not cast.
  EXPECT_EQ(hub_read("{\"round\":99999999999999999999,\"inputs\":[]}"),
            std::nullopt);
  EXPECT_EQ(hub_read("{\"round\":-1e19,\"inputs\":[]}"), std::nullopt);
  // The mutations keep some rounds valid and break others.
  EXPECT_GT(accepted, 30u);
  EXPECT_GT(cases.size() - accepted, 500u);
}

// --- end-to-end campaign ---------------------------------------------------

namespace {

sh::CampaignSpec small_campaign(int feeds = 3, int days = 28) {
  return osprey::core::make_surveillance_campaign("iwss", feeds, days);
}

}  // namespace

TEST(ShardFabric, CampaignRunsIngestAnalyzeAggregateRounds) {
  sh::ShardedFabricConfig config;
  config.num_shards = 2;
  sh::ShardedFabric fabric(config);
  fabric.register_campaign(small_campaign());
  ASSERT_EQ(fabric.num_partitions(), 4u);  // 3 feeds + hub
  fabric.run_until(28 * kDay);

  // Every feed partition published analysis versions upward.
  for (int f = 0; f < 3; ++f) {
    sh::ShardPartition& p =
        fabric.partition("iwss-feed" + std::to_string(f));
    ASSERT_EQ(p.feeds().size(), 1u);
    EXPECT_GT(p.server().ingestion_runs(), 0u);
    EXPECT_GT(p.server().analysis_runs(), 0u);
  }
  // The coordinator saw them and dispatched aggregation rounds; the hub
  // executed them and reported aggregate versions back.
  EXPECT_GT(fabric.coordinator().rounds_dispatched("iwss"), 0u);
  EXPECT_GT(fabric.coordinator().aggregates_published("iwss"), 0u);
  EXPECT_LE(fabric.coordinator().aggregates_published("iwss"),
            fabric.coordinator().rounds_dispatched("iwss"));
  EXPECT_FALSE(fabric.partition("iwss-hub").aggregate_uuid().empty());
  EXPECT_GT(fabric.events_processed(), 0u);
}

TEST(ShardFabric, LookupServesShardQualifiedVersions) {
  sh::ShardedFabric fabric;
  fabric.register_campaign(small_campaign());
  fabric.run_until(28 * kDay);

  sh::ShardPartition& p0 = fabric.partition("iwss-feed0");
  std::string qualified = "iwss-feed0/" + p0.feeds()[0].analysis_uuid;
  auto first = fabric.lookup(qualified);
  EXPECT_TRUE(first.estimate.version.has_value());
  EXPECT_EQ(first.shard, "iwss-feed0");
  EXPECT_EQ(first.outcome, osprey::serve::CacheOutcome::kMiss);
  auto second = fabric.lookup(qualified);
  EXPECT_EQ(second.outcome, osprey::serve::CacheOutcome::kHit);
  EXPECT_EQ(second.shard, "iwss-feed0");

  // The hub's aggregate is served under its own shard qualifier.
  auto agg = fabric.lookup("iwss-hub/" +
                           fabric.partition("iwss-hub").aggregate_uuid());
  EXPECT_TRUE(agg.estimate.version.has_value());
  EXPECT_EQ(agg.shard, "iwss-hub");
}

TEST(ShardFabric, ShardCountDoesNotChangeMergedArtifacts) {
  // The core determinism claim, smoke-sized (the full 16-seed chaos
  // sweep across {1, 2, 8} shards is test_shard_replay.cpp).
  std::string trace1, trace8, metrics1, metrics8;
  {
    sh::ShardedFabricConfig config;
    config.num_shards = 1;
    sh::ShardedFabric fabric(config);
    fabric.register_campaign(small_campaign());
    fabric.run_until(14 * kDay);
    trace1 = fabric.merged_chrome_trace();
    metrics1 = fabric.merged_metrics().to_json();
  }
  {
    sh::ShardedFabricConfig config;
    config.num_shards = 8;
    sh::ShardedFabric fabric(config);
    fabric.register_campaign(small_campaign());
    fabric.run_until(14 * kDay);
    trace8 = fabric.merged_chrome_trace();
    metrics8 = fabric.merged_metrics().to_json();
  }
  EXPECT_EQ(trace1, trace8);
  EXPECT_EQ(metrics1, metrics8);
  EXPECT_FALSE(trace1.empty());
}

TEST(ShardFabric, MergedSpansCarryShardLabels) {
  sh::ShardedFabric fabric;
  fabric.register_campaign(small_campaign(2, 14));
  fabric.run_until(14 * kDay);
  std::vector<osprey::obs::SpanRecord> spans = fabric.merged_spans();
  ASSERT_FALSE(spans.empty());
  std::set<std::string> labels;
  for (const auto& s : spans) labels.insert(s.shard);
  EXPECT_TRUE(labels.count("iwss-feed0"));
  EXPECT_TRUE(labels.count("iwss-feed1"));
  EXPECT_TRUE(labels.count("iwss-hub"));
  EXPECT_FALSE(labels.count(""));  // every merged span is attributed
  // Ids are canonical (1..n ascending) after the merge.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, i + 1);
  }
}

TEST(ShardFabric, MergedMetricsAndPrometheusAreShardDimensioned) {
  sh::ShardedFabric fabric;
  fabric.register_campaign(small_campaign(2, 14));
  fabric.run_until(14 * kDay);
  ou::Value merged = fabric.merged_metrics();
  ASSERT_TRUE(merged.is_object());
  const auto& shards = merged.at("shards").as_object();
  EXPECT_TRUE(shards.count("coordinator"));
  EXPECT_TRUE(shards.count("iwss-feed0"));
  EXPECT_TRUE(shards.count("iwss-hub"));
  // Totals sum the per-shard counters.
  const auto& totals = merged.at("totals").at("counters").as_object();
  EXPECT_TRUE(totals.count("aero_ingestion_runs_total") ||
              !totals.empty());

  std::string prom = fabric.merged_prometheus();
  EXPECT_NE(prom.find("{shard=\"iwss-feed0\"}"), std::string::npos);
  EXPECT_NE(prom.find("{shard=\"coordinator\"}"), std::string::npos);
}

// --- chaos + durability ----------------------------------------------------

TEST(ShardFabric, ChaosForksIndependentPerPartitionPlans) {
  osprey::fabric::FaultPlan master(0xC0);
  master.set_rate(osprey::fabric::FaultKind::kTransferDrop, 0.08);
  sh::ShardedFabricConfig config;
  config.num_shards = 2;
  sh::ShardedFabric fabric(config);
  fabric.set_chaos(master);
  fabric.register_campaign(small_campaign());
  fabric.run_until(28 * kDay);

  // Each partition drew its own deterministic fault stream.
  std::set<std::uint64_t> seeds;
  for (const std::string& key : fabric.partition_keys()) {
    const osprey::fabric::FaultPlan* plan = fabric.partition(key).chaos();
    ASSERT_NE(plan, nullptr);
    seeds.insert(plan->seed());
  }
  EXPECT_EQ(seeds.size(), fabric.num_partitions());
  // With drops injected, at least one partition recorded incidents and
  // the merged log attributes them by shard header.
  std::string log = fabric.merged_incident_log();
  EXPECT_NE(log.find("=== shard "), std::string::npos);
  EXPECT_NE(log.find("transfer-drop"), std::string::npos);
}

namespace {

/// One MemFs per partition key: the "disks" that outlive a whole-fabric
/// crash. A DurableFs is not synchronised and any worker thread may run
/// any partition, so partitions never share one.
using PartitionDisks = std::map<std::string, std::unique_ptr<ou::MemFs>>;

/// Give every partition durable metadata under "wal/<key>" on its own
/// disk (made on first use) and sum the partitions' recovery stats.
osprey::aero::RecoveryStats enable_partition_durability(
    sh::ShardedFabric& fabric, PartitionDisks& disks) {
  osprey::aero::RecoveryStats total;
  for (const std::string& key : fabric.partition_keys()) {
    std::unique_ptr<ou::MemFs>& disk = disks[key];
    if (!disk) disk = std::make_unique<ou::MemFs>();
    osprey::aero::RecoveryStats stats =
        fabric.partition(key).enable_durability(*disk, "wal");
    total.replayed += stats.replayed;
    total.torn += stats.torn;
    total.corrupt += stats.corrupt;
  }
  return total;
}

/// The canonical artifacts of a durable run, before and after the crash,
/// and every byte its partitions left on their disks.
struct DurableRunArtifacts {
  std::string prometheus_before_crash;
  std::string incidents_before_crash;
  std::string prometheus;
  std::string incidents;
  std::map<std::string, std::string> disk_bytes;  // "<key>:<path>" -> bytes
};

/// Run a 2-feed campaign with chaos on to day 14, crash the whole fabric,
/// recover every partition from its own disk and run on to day 28.
DurableRunArtifacts run_durable_campaign(std::size_t shards) {
  const sh::CampaignSpec campaign = small_campaign(2, 28);
  osprey::fabric::FaultPlan master(0xC0);
  master.set_rate(osprey::fabric::FaultKind::kTransferDrop, 0.08);
  sh::ShardedFabricConfig config;
  config.num_shards = shards;
  DurableRunArtifacts artifacts;
  PartitionDisks disks;
  std::string analysis_uuid_run1;
  std::string qualified;
  {
    sh::ShardedFabric fabric(config);
    fabric.set_chaos(master);
    fabric.register_campaign(campaign);
    osprey::aero::RecoveryStats recovery =
        enable_partition_durability(fabric, disks);
    EXPECT_EQ(disks.size(), 3u);
    EXPECT_EQ(recovery.replayed, 0u);  // cold start
    fabric.run_until(14 * kDay);
    EXPECT_FALSE(fabric.partition("iwss-feed0").feeds().empty());
    if (fabric.partition("iwss-feed0").feeds().empty()) return artifacts;
    analysis_uuid_run1 = fabric.partition("iwss-feed0").feeds()[0].analysis_uuid;
    qualified = "iwss-feed0/" + analysis_uuid_run1;
    EXPECT_TRUE(fabric.lookup(qualified).estimate.version.has_value());
    artifacts.prometheus_before_crash = fabric.merged_prometheus();
    artifacts.incidents_before_crash = fabric.merged_incident_log();
  }  // whole-fabric crash: every partition's volatile state is gone

  // Each partition owned a disjoint WAL segment directory on its disk.
  for (const auto& [key, disk] : disks) {
    EXPECT_FALSE(disk->list("wal/" + key + "/").empty()) << key;
    EXPECT_EQ(disk->list("wal/").size(), disk->file_count()) << key;
    EXPECT_EQ(disk->list("wal/" + key + "/").size(), disk->file_count())
        << key;
  }

  sh::ShardedFabric fabric2(config);
  fabric2.set_chaos(master);
  fabric2.register_campaign(campaign);
  osprey::aero::RecoveryStats recovery =
      enable_partition_durability(fabric2, disks);
  EXPECT_EQ(disks.size(), 3u);
  EXPECT_GT(recovery.replayed, 0u);
  EXPECT_EQ(recovery.corrupt, 0u);

  // The partition-stable uuid seed means recovery reproduces the same
  // uuid stream: the pre-crash analysis uuid resolves straight from the
  // replayed metadata db, before the first epoch re-registers the flows
  // (registration envelopes deliver at the next epoch barrier).
  auto served = fabric2.lookup(qualified);
  EXPECT_TRUE(served.estimate.version.has_value());

  // And the workflow continues past the crash point under the same ids.
  fabric2.run_until(28 * kDay);
  EXPECT_FALSE(fabric2.partition("iwss-feed0").feeds().empty());
  if (!fabric2.partition("iwss-feed0").feeds().empty()) {
    EXPECT_EQ(fabric2.partition("iwss-feed0").feeds()[0].analysis_uuid,
              analysis_uuid_run1);
  }
  EXPECT_GT(fabric2.coordinator().rounds_dispatched("iwss"), 0u);
  artifacts.prometheus = fabric2.merged_prometheus();
  artifacts.incidents = fabric2.merged_incident_log();
  for (const auto& [key, disk] : disks) {
    for (const std::string& path : disk->list("")) {
      artifacts.disk_bytes[key + ":" + path] = disk->read(path).value_or("");
    }
  }
  return artifacts;
}

}  // namespace

TEST(ShardFabric, PerPartitionWalDirectoriesAndRecovery) {
  // One disk per partition at every shard count; a partition's WAL, and
  // so every merged artifact, is a function of the partition alone.
  std::optional<DurableRunArtifacts> reference;
  for (std::size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    DurableRunArtifacts run = run_durable_campaign(shards);
    EXPECT_NE(run.incidents.find("transfer-drop"), std::string::npos);
    EXPECT_NE(run.prometheus.find("aero_wal_appends_total"),
              std::string::npos);
    if (!reference) {
      reference = std::move(run);
      continue;
    }
    EXPECT_EQ(run.prometheus_before_crash, reference->prometheus_before_crash);
    EXPECT_EQ(run.incidents_before_crash, reference->incidents_before_crash);
    EXPECT_EQ(run.prometheus, reference->prometheus);
    EXPECT_EQ(run.incidents, reference->incidents);
    EXPECT_EQ(run.disk_bytes, reference->disk_bytes);
  }
}

namespace {

/// Per partition: the largest in_flight() of its transfers, flows and
/// login endpoint over every epoch barrier of an hourly-poll campaign.
/// Hourly epochs put a barrier on every poll, while the runs it starts
/// are in flight.
using InFlightPeaks = std::map<std::string, std::array<std::size_t, 3>>;

InFlightPeaks run_hourly_campaign(std::size_t shards, int days) {
  sh::ShardedFabricConfig config;
  config.num_shards = shards;
  config.tracing = false;
  config.epoch = ou::kHour;
  sh::ShardedFabric fabric(config);
  fabric.register_campaign(osprey::core::make_surveillance_campaign(
      "flat", 4, days, ou::kHour));
  InFlightPeaks peaks;
  for (ou::SimTime t = config.epoch; t <= days * kDay; t += config.epoch) {
    fabric.run_until(t);
    for (const std::string& key : fabric.partition_keys()) {
      const sh::ShardPartition& p = fabric.partition(key);
      std::array<std::size_t, 3>& peak = peaks[key];
      peak[0] = std::max(peak[0], p.transfers().in_flight());
      peak[1] = std::max(peak[1], p.flows().in_flight());
      peak[2] = std::max(peak[2], p.login().in_flight());
    }
  }
  // MetadataDb is the one run history: one record per run started.
  for (const std::string& key : fabric.partition_keys()) {
    const osprey::aero::AeroServer& server = fabric.partition(key).server();
    EXPECT_EQ(server.db().runs().size(),
              server.ingestion_runs() + server.analysis_runs())
        << key << " at " << days << " days";
  }
  return peaks;
}

}  // namespace

TEST(ShardFabric, RetainedFabricRecordsStayFlatAsTheHorizonGrows) {
  // Fabric services retire a record when its completion lands, so what
  // they retain is bounded by the work in flight, not by the horizon.
  constexpr int kDays = 14;
  for (std::size_t shards : {2u, 8u}) {
    InFlightPeaks short_run = run_hourly_campaign(shards, kDays);
    InFlightPeaks long_run = run_hourly_campaign(shards, 10 * kDays);
    EXPECT_EQ(short_run, long_run) << shards << " shards";
    // The barriers do see work in flight, so the gate is not vacuous.
    std::size_t busiest = 0;
    for (const auto& [key, peak] : short_run) {
      busiest = std::max({busiest, peak[0], peak[1], peak[2]});
    }
    EXPECT_GT(busiest, 0u) << shards << " shards";
  }
}

TEST(ShardFabric, RejectsMalformedKeysAndUnknownPartitions) {
  sh::ShardedFabric fabric;
  sh::CampaignSpec bad;
  bad.name = "c";
  sh::FeedSpec feed;
  feed.name = "a/b";  // '/' collides with serve addressing
  bad.feeds.push_back(feed);
  EXPECT_THROW(fabric.register_campaign(bad), std::exception);

  fabric.register_campaign(small_campaign(1, 7));
  EXPECT_THROW(fabric.partition("nope"), std::exception);
  EXPECT_THROW(fabric.lookup("no-slash"), std::exception);
}

TEST(ShardFabric, RejectedCampaignCreatesNoPartition) {
  sh::ShardedFabric fabric;
  sh::FeedSpec a, b, c;
  a.name = "a";
  b.name = "a/b";  // rejected only after "a" passed its own checks
  c.name = "c";

  sh::CampaignSpec bad;
  bad.name = "camp";
  bad.feeds = {a, b};
  EXPECT_THROW(fabric.register_campaign(bad), std::exception);
  EXPECT_EQ(fabric.num_partitions(), 0u);

  // The same campaign, fixed, registers cleanly afterwards.
  b.name = "b";
  sh::CampaignSpec fixed = bad;
  fixed.feeds = {a, b};
  fabric.register_campaign(fixed);
  EXPECT_EQ(fabric.partition_keys(),
            (std::vector<std::string>{"a", "b", "camp-hub"}));

  // A reused campaign name is the coordinator's to reject, and its new
  // feed must not get a partition first.
  sh::CampaignSpec reused;
  reused.name = "camp";
  reused.feeds = {c};
  reused.aggregate = false;
  EXPECT_THROW(fabric.register_campaign(reused), std::exception);
  EXPECT_EQ(fabric.num_partitions(), 3u);

  // A hub key that collides with a feed of the same campaign.
  sh::CampaignSpec clash;
  clash.name = "x";
  sh::FeedSpec hub_named;
  hub_named.name = "x-hub";
  clash.feeds = {c, hub_named};
  EXPECT_THROW(fabric.register_campaign(clash), std::exception);
  EXPECT_EQ(fabric.num_partitions(), 3u);

  fabric.run_until(2 * kDay);
  EXPECT_EQ(fabric.partition("a").feeds().size(), 1u);
  EXPECT_EQ(fabric.partition("b").feeds().size(), 1u);
}
