#pragma once

/// \file partition.hpp
/// One partition of the ShardedFabric: a self-contained mini-universe of
/// the orchestration stack — its own aero::OspreyPlatform (AERO named
/// "aero/<key>" with a partition-stable uuid seed) with eagle, scratch
/// and login endpoints, plus a serving-tier cache and an outbox — owning
/// exactly one surveillance feed (or one campaign's aggregation hub).
///
/// The PARTITION is both the determinism unit and the unit of work:
/// everything a partition computes is a pure function of its own
/// registration envelopes, its delivered mailbox, and its forked
/// fault-plan seed. The fabric's worker threads pull partitions one at a
/// time, so any thread may run a partition in any epoch, and every
/// artifact (trace, incident log, metrics, uuids) comes out
/// bit-identical, which is what the replay sweep in
/// tests/test_shard_replay.cpp proves.
///
/// This is the ONLY file in src/shard/ allowed to touch the aero/serve
/// orchestration types (osprey_lint's cross-shard-isolation rule):
/// fabric.cpp and coordinator.cpp must stay at the envelope level, so no
/// cross-partition reference can creep in and silently break isolation.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aero/platform.hpp"
#include "fabric/fault.hpp"
#include "serve/cache.hpp"
#include "shard/campaign.hpp"
#include "shard/mailbox.hpp"
#include "util/durable_fs.hpp"

namespace osprey::shard {

class MailboxSource;  // defined in partition.cpp

/// The partition-key rules: non-empty, and no '/' (reserved by the
/// "<partition>/<uuid>" serve addressing). Throws util::InvalidArgument.
void require_partition_key(const std::string& key);

/// The hub's aggregate function. The hub's aggregation executes as the
/// transform step of its mailbox-fed ingestion flow, so it sees
/// {"input": <round JSON>}, the coordinator's round (the member
/// versions/checksums it merges over), and returns
/// {"output": "aggregated:round<N>:<members>"}. It reads the round
/// number and the member count without building the round's tree, and
/// accepts and rejects exactly the texts Value::parse_json does.
osprey::util::Value hub_aggregate(const osprey::util::Value& args);

struct PartitionConfig {
  /// Partition key: the feed name or "<campaign>-hub"
  /// (require_partition_key).
  std::string key;
  /// Stable 1-based ordinal in fabric registration order (0 is the
  /// coordinator). This — never the ephemeral shard/thread id — is the
  /// partition's origin in the envelope order.
  std::uint32_t ordinal = 1;
  /// Fabric seed; envelope stamps and the uuid stream derive from
  /// (seed, key), so they are invariant under the shard count.
  std::uint64_t seed = 0;
  bool tracing = true;
};

class ShardPartition {
 public:
  explicit ShardPartition(PartitionConfig config);
  ~ShardPartition();

  ShardPartition(const ShardPartition&) = delete;
  ShardPartition& operator=(const ShardPartition&) = delete;

  const std::string& key() const { return config_.key; }
  std::uint32_t ordinal() const { return config_.ordinal; }

  /// Fork `master` into this partition's private fault plan (seeded by
  /// the stable key hash, so each partition draws an independent but
  /// replayable fault stream) and attach it to the partition's loop,
  /// and so to every service on it. Call before the first epoch.
  void enable_chaos(const fabric::FaultPlan& master);
  /// The partition's private plan (nullptr without chaos).
  fabric::FaultPlan* chaos() { return chaos_.get(); }
  const fabric::FaultPlan* chaos() const { return chaos_.get(); }

  /// Durable metadata under `<base_dir>/<key>` — each partition owns a
  /// disjoint WAL segment directory, so recovery is per-partition and
  /// embarrassingly parallel. This is the only way to make a sharded run
  /// durable: give every partition its own `fs`, since a DurableFs is
  /// not synchronised and any worker thread may run any partition. Must
  /// precede the first epoch (registration envelopes are applied
  /// idempotently on top of the recovered state).
  aero::RecoveryStats enable_durability(osprey::util::DurableFs& fs,
                                        const std::string& base_dir);

  /// Run epoch `tick` on whichever worker pulled it: apply the envelopes
  /// of `inbox` (consumed, left empty), then advance the partition's
  /// event loop to `until`. Everything posted meanwhile carries `tick`.
  void run_epoch(std::uint64_t tick, SimTime until,
                 std::vector<Envelope>& inbox);

  /// Move the partition's outbox onto the end of `batch` (at the epoch
  /// barrier, post-join).
  void drain_outbox(std::vector<Envelope>& batch);

  /// Serve a data object through the partition's cache tier.
  serve::ResultCache::Result lookup(const std::string& uuid);

  /// Uuids of the flows hosted for one feed.
  struct FeedInfo {
    std::string name;
    std::string ingest_uuid;    // transformed ingestion output
    std::string analysis_uuid;  // per-feed analysis output
  };
  const std::vector<FeedInfo>& feeds() const { return feeds_; }
  /// Aggregate output uuid ("" unless this partition hosts a hub).
  const std::string& aggregate_uuid() const { return aggregate_uuid_; }

  std::uint64_t events_processed() const {
    return platform_.loop().events_processed();
  }
  /// Chaos incident log (nullptr without chaos).
  const fabric::IncidentLog* incident_log() const {
    return chaos_ ? &chaos_->log() : nullptr;
  }
  std::vector<obs::SpanRecord> spans() const {
    return platform_.tracer().snapshot();
  }
  /// The partition's metrics registry: its event loop's.
  const obs::MetricsRegistry& metrics() const { return platform_.metrics(); }
  obs::MetricsRegistry& metrics() { return platform_.metrics(); }

  /// Test/tool introspection into the partition's orchestration stack.
  aero::AeroServer& server() { return platform_.aero(); }
  serve::ResultCache& cache() { return *cache_; }
  const fabric::TransferService& transfers() const {
    return platform_.transfers();
  }
  const fabric::FlowsService& flows() const { return platform_.flows(); }
  const fabric::ComputeEndpoint& login() const {
    return platform_.compute_endpoint("login");
  }

 private:
  /// Apply one envelope addressed to this partition.
  void deliver(Envelope& env);
  /// Run `spec` as `function_id` on the login node, staged through
  /// scratch and stored in eagle's "data" collection.
  void place(aero::FlowSpec& spec, const std::string& function_id);
  void add_feed(const FeedSpec& spec);
  void host_aggregate(const std::string& campaign, SimTime poll_period);
  /// Update-listener hook: report newly published versions upward.
  void on_updated(const std::string& uuid);

  PartitionConfig config_;
  /// Declared before the stack so it outlives every service reading it.
  std::unique_ptr<fabric::FaultPlan> chaos_;
  aero::OspreyPlatform platform_;
  /// Declared after the stack so it detaches before the server dies.
  std::unique_ptr<serve::ResultCache> cache_;
  std::string transform_fn_;
  std::string analysis_fn_;
  std::string aggregate_fn_;
  Outbox outbox_;
  std::uint64_t tick_ = 0;

  struct Tracked {
    std::string feed;  // "" for the aggregate output
    VersionKind kind = VersionKind::kAnalysis;
  };
  std::map<std::string, Tracked> tracked_;  // uuid -> provenance
  std::map<std::string, int> last_version_posted_;
  std::vector<FeedInfo> feeds_;
  std::shared_ptr<MailboxSource> aggregate_source_;
  std::string aggregate_campaign_;
  std::string aggregate_uuid_;
};

}  // namespace osprey::shard
