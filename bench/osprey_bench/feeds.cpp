/// feeds_hourly and feeds_durable: the sharded surveillance campaign of
/// core::make_surveillance_campaign on a 4-shard shard::ShardedFabric.
///
///  - feeds_hourly polls 1500 feeds every hour without a WAL. Only about
///    1 poll in 168 finds new data, so it exercises the orchestration hot
///    path: event loop, timers and AERO's unchanged-poll short-circuit.
///  - feeds_durable polls the same kind of campaign daily with every
///    metadata mutation written ahead and fsynced. Each partition gets
///    its own TimedFs over its own util::RealFs in its own directory,
///    through the public ShardPartition::enable_durability:
///    ShardedFabric::enable_durability shares one unsynchronised
///    DurableFs across the shard threads.

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aero/wal.hpp"
#include "core/usecase_shard.hpp"
#include "measure.hpp"
#include "num/rng.hpp"
#include "shard/fabric.hpp"
#include "timed_fs.hpp"
#include "workloads.hpp"

namespace osprey::bench {

namespace {

using osprey::util::kDay;
using osprey::util::kHour;
using osprey::util::kMinute;
using osprey::util::SimTime;

constexpr const char* kCampaign = "bench";
constexpr std::size_t kShards = 4;

struct CampaignShape {
  int feeds = 0;
  int days = 0;
  SimTime poll = kDay;
  bool durable = false;
};

/// The campaign builder's weekly, weekday-staggered publications, each
/// feed shifted by its own seeded whole-minute offset within the day so
/// the publication-to-poll phase (and so every lag) depends on the seed.
shard::CampaignSpec seeded_campaign(std::uint64_t seed,
                                    const CampaignShape& shape) {
  shard::CampaignSpec spec = core::make_surveillance_campaign(
      kCampaign, shape.feeds, shape.days - 1, shape.poll);
  const num::RngStream root(seed);
  for (std::size_t f = 0; f < spec.feeds.size(); ++f) {
    num::RngStream rng = root.substream(f);
    const SimTime offset =
        static_cast<SimTime>(rng.uniform_int(24 * 60)) * kMinute;
    for (auto& [at, payload] : spec.feeds[f].timeline) at += offset;
  }
  return spec;
}

/// Reads every WAL segment back and decodes each frame; returns the
/// number of valid records and appends the payloads (up to `keep`).
std::uint64_t read_back_wal(const osprey::util::DurableFs& fs,
                            const std::string& dir, std::size_t keep,
                            std::vector<std::string>& payloads,
                            bool& damaged) {
  std::uint64_t records = 0;
  for (const std::string& segment : fs.list(dir + "/wal-")) {
    std::optional<std::string> bytes = fs.read(segment);
    if (!bytes) continue;
    std::size_t offset = 0;
    while (offset < bytes->size()) {
      aero::DecodedRecord frame = aero::decode_record(*bytes, offset);
      if (frame.status != aero::DecodeStatus::kOk) {
        damaged = true;
        break;
      }
      ++records;
      if (payloads.size() < keep) payloads.push_back(std::move(frame.payload));
      offset += frame.consumed;
    }
  }
  return records;
}

void run_campaign(const Options& options, Report& r,
                  const CampaignShape& shape) {
  r.params["feeds"] = osprey::util::Value(shape.feeds);
  r.params["days"] = osprey::util::Value(shape.days);
  r.params["poll"] = osprey::util::Value(shape.poll == kHour ? "hourly"
                                                             : "daily");
  r.params["shards"] = osprey::util::Value(kShards);
  r.params["wal"] = osprey::util::Value(shape.durable ? "fsync-each-append"
                                                      : "off");

  // Before the set-up clock: the seeded inputs, old WAL files cleared,
  // and one empty directory per partition. Each partition's RealFs is
  // rooted in its own directory, like a disk of its own: with one shared
  // root every sync() fsyncs the same directory from all shard threads,
  // and the run-to-run spread tripled.
  const shard::CampaignSpec campaign = seeded_campaign(options.seed, shape);
  const std::string hub = shard::Coordinator::hub_key(kCampaign);
  const std::string wal_root = options.scratch + "/wal";
  std::filesystem::remove_all(wal_root);
  auto disk_dir = [&](const std::string& key) { return wal_root + "/" + key; };
  if (shape.durable) {
    for (const shard::FeedSpec& feed : campaign.feeds) {
      std::filesystem::create_directories(disk_dir(feed.name));
    }
    std::filesystem::create_directories(disk_dir(hub));
  }

  TimedRun run;
  shard::ShardedFabricConfig config;
  config.num_shards = kShards;
  config.seed = options.seed;
  // Partition tracing records a timer instant per poll: at a sub-daily
  // cadence that is millions of spans, so traced reps leave it off.
  config.tracing = options.traced && shape.poll >= kDay;
  shard::ShardedFabric fabric(config);
  fabric.register_campaign(campaign);
  std::map<std::string, std::unique_ptr<TimedFs>> disks;
  if (shape.durable) {
    for (const std::string& key : fabric.partition_keys()) {
      auto disk = std::make_unique<TimedFs>(
          std::make_unique<osprey::util::RealFs>(disk_dir(key)));
      fabric.partition(key).enable_durability(*disk, "wal");
      disks.emplace(key, std::move(disk));
    }
  }
  run.end_setup();

  run.run_steps(shape.days, [&](int d) {
    fabric.run_until(static_cast<SimTime>(d) * kDay);
  });
  run.feed_days = static_cast<double>(shape.feeds) * shape.days;

  // --- outputs and checks ---------------------------------------------
  const SimTime end = static_cast<SimTime>(shape.days) * kDay;
  Freshness fresh, agg;
  const std::vector<aero::DataVersion>& agg_versions =
      fabric.partition(hub).server().db().object(
          fabric.partition(hub).aggregate_uuid()).versions;
  for (const shard::FeedSpec& feed : campaign.feeds) {
    shard::ShardPartition& p = fabric.partition(feed.name);
    std::vector<SimTime> published;
    for (const auto& [at, payload] : feed.timeline) published.push_back(at);
    add_freshness(
        fresh, published,
        p.server().db().object(p.feeds().at(0).analysis_uuid).versions,
        end - shape.poll - kHour);
    // An aggregation round needs every member to advance: up to a week.
    add_freshness(agg, published, agg_versions,
                  end - 7 * kDay - shape.poll - kHour);
  }
  // A publication is analysed within a poll period plus an hour. The
  // aggregate waits for the week's last member (up to 7 days), whose
  // version report and the round it triggers each cross an epoch
  // barrier, then for the hub's next poll.
  report_lags(r, "aero.fresh_lag", fresh, shape.poll + kHour);
  report_lags(r, "aero.agg_lag", agg, 9 * kDay + shape.poll + kHour);

  AeroTotals totals;
  double wal_appends = 0, wal_fsyncs = 0, wal_checkpoints = 0;
  std::vector<double> shard_events(kShards, 0.0);
  std::vector<std::string> payloads;
  std::uint64_t decoded = 0;
  bool damaged = false;
  for (const std::string& key : fabric.partition_keys()) {
    shard::ShardPartition& p = fabric.partition(key);
    totals.add(p.server());
    wal_appends += counter_value(p.metrics(), "aero_wal_appends_total");
    wal_fsyncs += counter_value(p.metrics(), "aero_wal_fsyncs_total");
    wal_checkpoints +=
        counter_value(p.metrics(), "aero_wal_checkpoints_total");
    shard_events[shard::shard_of(key, kShards)] +=
        static_cast<double>(p.events_processed());
    if (shape.durable) {
      const std::size_t keep =
          options.traced ? (options.smoke ? 2000 : 20000) : 0;
      decoded += read_back_wal(*disks.at(key), "wal/" + key, keep,
                               payloads, damaged);
    }
  }
  const std::uint64_t aggregates =
      fabric.coordinator().aggregates_published(kCampaign);
  r.check(aggregates > 0, "the campaign never aggregated");
  if (shape.durable) {
    r.check(wal_appends > 0, "durable run appended no WAL records");
    r.check(wal_fsyncs >= wal_appends, "a WAL append was not fsynced");
    r.check(!damaged && static_cast<double>(decoded) == wal_appends,
            "WAL read-back does not match the appended records");
  }

  // --- per-layer --------------------------------------------------------
  const double events = static_cast<double>(fabric.events_processed());
  report_work(r, events, totals, run.feed_days);
  r.set_work("aero.wal_appends", wal_appends);
  r.set_work("aero.wal_fsyncs", wal_fsyncs);
  r.set_work("aero.wal_checkpoints", wal_checkpoints);
  r.set_work("shard.epochs", static_cast<double>(fabric.epochs()));
  r.set_work("shard.aggregation_rounds",
             static_cast<double>(
                 fabric.coordinator().rounds_dispatched(kCampaign)));
  r.set_work("shard.aggregates_published", static_cast<double>(aggregates));
  double max_events = 0.0;
  for (double e : shard_events) max_events = std::max(max_events, e);
  r.set_work("shard.event_skew",
             ratio(max_events, events / static_cast<double>(kShards)));

  r.set_wall("obs.spans", static_cast<double>(fabric.merged_spans().size()));
  if (shape.durable) {
    std::vector<double> append_us, sync_us;
    double fs_ns = 0.0, wal_bytes = 0.0;
    for (const auto& [key, disk] : disks) {
      for (std::uint64_t ns : disk->append_ns()) append_us.push_back(ns / 1e3);
      for (std::uint64_t ns : disk->sync_ns()) sync_us.push_back(ns / 1e3);
      fs_ns += static_cast<double>(disk->busy_ns());
      wal_bytes += static_cast<double>(disk->bytes());
    }
    r.set_work("aero.wal_bytes", wal_bytes);
    r.set_wall("aero.fs_append_us_p50", quantile(append_us, 0.5));
    r.set_wall("aero.fs_append_us_p99", quantile(append_us, 0.99));
    r.set_wall("aero.fs_sync_us_p50", quantile(sync_us, 0.5));
    r.set_wall("aero.fs_sync_us_p99", quantile(sync_us, 0.99));
    // The shards run in parallel: filesystem time is a share of the
    // wall time all shards together had.
    r.set_wall("aero.fs_share",
               ratio(fs_ns / 1e9, run.run_s * static_cast<double>(kShards)));
    run.attributed_s = fs_ns / 1e9 / static_cast<double>(kShards);
  }
  if (options.traced) {
    report_dispatch(options, r, events, run.cpu_s);
    if (shape.durable) {
      const WalProbe probe = probe_wal(payloads);
      r.set_wall("aero.wal_encode_us", probe.encode_us);
      r.set_wall("crypto.sha256_mb_per_s", probe.sha256_mb_per_s);
    }
  }
  report_end_to_end(r, run);
  disks.clear();
  std::filesystem::remove_all(wal_root);
}

}  // namespace

void run_feeds_hourly(const Options& options, Report& report) {
  CampaignShape shape;
  shape.feeds = options.smoke ? 150 : 1500;
  shape.days = options.smoke ? 14 : 91;
  shape.poll = kHour;
  run_campaign(options, report, shape);
}

void run_feeds_durable(const Options& options, Report& report) {
  CampaignShape shape;
  shape.feeds = options.smoke ? 150 : 1500;
  shape.days = options.smoke ? 14 : 28;
  shape.poll = kDay;
  shape.durable = true;
  run_campaign(options, report, shape);
}

}  // namespace osprey::bench
