#pragma once

/// \file coordinator.hpp
/// The thin coordination layer of the ShardedFabric: the only component
/// with a global view, and deliberately the only one WITHOUT access to
/// any partition's orchestration state. It speaks exclusively in
/// envelopes (enforced by osprey_lint's cross-shard-isolation rule):
/// campaign registration fans out as RegisterFeed / RegisterAggregate
/// envelopes, partitions report published data versions as
/// VersionReports, and the coordinator closes the loop by posting an
/// AggregateInput (the round's JSON) to the campaign's hub partition
/// whenever every member has advanced — the cross-region aggregation
/// round of the paper's multi-site workflows. All decisions are functions of envelope contents in their
/// deterministic barrier order, so the coordinator replays bit-identically
/// no matter how many threads ran the shards.

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shard/campaign.hpp"
#include "shard/mailbox.hpp"

namespace osprey::shard {

class Coordinator {
 public:
  /// The coordinator's stable origin ordinal in the envelope order.
  static constexpr std::uint32_t kOrigin = 0;

  /// Without `tracing`, the coordinator records no trace instants.
  explicit Coordinator(std::uint64_t seed, bool tracing = true);

  /// Partition key of a campaign's aggregation hub. Derived with a
  /// suffix that keeps the key '/'-free and distinct from feed names.
  static std::string hub_key(const std::string& campaign);

  /// Record the campaign and post its registration envelopes (delivered
  /// to the partitions at the next epoch boundary).
  void register_campaign(const CampaignSpec& spec);

  /// Start an epoch: subsequent posts and trace instants carry `tick` /
  /// `now_ns`.
  void begin_tick(std::uint64_t tick, std::uint64_t now_ns);

  /// Consume the barrier's envelope batch addressed to the
  /// coordinator, in its deterministic order.
  void deliver(const std::vector<Envelope>& batch);

  /// Drain the coordinator's outbox for routing to partitions.
  std::vector<Envelope> collect();

  /// Aggregation rounds dispatched for `campaign` (0 for unknown).
  std::uint64_t rounds_dispatched(const std::string& campaign) const;
  /// Aggregate versions the hub reported back for `campaign`.
  std::uint64_t aggregates_published(const std::string& campaign) const;

  obs::TraceRecorder& tracer() { return tracer_; }
  const obs::TraceRecorder& tracer() const { return tracer_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct Member {
    std::string feed;
    int latest = 0;    // newest analysis version reported
    int consumed = 0;  // version consumed by the last dispatched round
    std::string uuid;
    std::string checksum;
  };
  struct Campaign {
    std::string name;
    bool aggregate = false;
    std::vector<Member> members;  // registration order
    /// Members with latest <= consumed. A round is due when it is 0.
    std::size_t behind = 0;
    std::uint64_t rounds = 0;
    std::uint64_t aggregates = 0;
  };
  /// Where a feed's version reports land.
  struct MemberRef {
    Campaign* campaign = nullptr;
    std::size_t member = 0;
  };

  void on_version(const VersionReport& report);
  /// Post the aggregation round every member has advanced for.
  void dispatch_round(Campaign& campaign);

  bool tracing_;
  obs::TraceRecorder tracer_;
  obs::MetricsRegistry metrics_;
  Outbox outbox_;
  std::uint64_t tick_ = 0;
  std::uint64_t now_ns_ = 0;

  std::map<std::string, Campaign> campaigns_;  // node-stable: MemberRef
  /// feed partition key -> its campaign member (routes version reports).
  std::unordered_map<std::string, MemberRef> feed_index_;

  obs::Counter* messages_ = nullptr;
  obs::Counter* version_reports_ = nullptr;
  obs::Counter* rounds_ = nullptr;
  obs::Counter* campaigns_registered_ = nullptr;
};

}  // namespace osprey::shard
