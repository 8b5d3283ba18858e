#pragma once

/// \file mailbox.hpp
/// Deterministic cross-shard messaging for the ShardedFabric
/// (DESIGN.md §7). All communication between partitions and the
/// coordination layer travels as Envelopes with typed bodies through
/// seeded, counter-stamped Outboxes, and is collected at epoch barriers
/// in a total order that depends only on logical state:
///
///   (tick, origin, seq)
///
/// where `origin` is the sender's STABLE partition ordinal (coordinator
/// = 0, partitions numbered in registration order) — never an ephemeral
/// shard/thread id. Two runs of the same workload therefore deliver the
/// same envelopes in the same order regardless of how many OS threads
/// executed the shards or how they interleaved, which is what makes the
/// fabric's merged artifacts byte-identical across shard counts.

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "shard/campaign.hpp"

namespace osprey::shard {

/// Coordinator -> feed partition: host this feed.
struct RegisterFeed {
  std::string campaign;
  FeedSpec feed;
};

/// Coordinator -> hub partition: host the campaign's aggregation.
struct RegisterAggregate {
  std::string campaign;
  SimTime poll_period = 0;
  std::size_t members = 0;
};

/// What a reported data version is the output of.
enum class VersionKind { kAnalysis, kAggregate };

/// Partition -> coordinator: a data version newly published on it.
struct VersionReport {
  std::string partition;
  std::string feed;  // "" for the aggregate output
  VersionKind kind = VersionKind::kAnalysis;
  std::string uuid;
  int version = 0;
  std::string checksum;
  SimTime timestamp = 0;
};

/// Coordinator -> hub partition: one aggregation round, as the JSON
/// text the hub's mailbox source serves.
struct AggregateInput {
  std::string json;
};

using Body =
    std::variant<RegisterFeed, RegisterAggregate, VersionReport, AggregateInput>;

/// One cross-shard message.
struct Envelope {
  std::uint64_t tick = 0;    // epoch the message was posted in
  std::uint32_t origin = 0;  // stable ordinal of the sender (0 = coordinator)
  std::uint64_t seq = 0;     // per-origin post counter
  /// Seeded provenance stamp: mix(outbox seed, origin, seq). Replays of
  /// the same seed reproduce it bit-for-bit; two runs with different
  /// seeds are distinguishable at a glance in dumped mailboxes.
  std::uint64_t stamp = 0;
  std::string dest;  // destination partition key ("" = coordinator)
  Body body;
};

/// The body's name, for dumps and tests: "register-feed",
/// "register-aggregate", "version" or "aggregate-input".
std::string_view topic(const Envelope& env);

/// Strict total order of delivery: (tick, origin, seq).
bool envelope_before(const Envelope& a, const Envelope& b);

/// FNV-1a of a partition key — the STABLE hash behind per-partition
/// seed derivation and shard_of (never std::hash, whose value may
/// differ across libraries/processes).
std::uint64_t stable_key_hash(const std::string& key);

/// Nominal shard of `key` out of `num_shards` (stable hash mod shards).
/// ShardedFabric's workers pull partitions dynamically, so this names a
/// hash split for reporting (osprey_bench's shard.event_skew), not the
/// thread that runs the partition.
std::size_t shard_of(const std::string& key, std::size_t num_shards);

/// Per-sender message buffer. Single-owner: only the owning partition
/// (or the coordinator) posts into its outbox, inside its own epoch, so
/// no locking is needed; the barrier drains it after the join.
class Outbox {
 public:
  Outbox(std::uint32_t origin, std::uint64_t seed);

  std::uint32_t origin() const { return origin_; }

  /// Append an envelope posted in epoch `tick`.
  void post(std::uint64_t tick, std::string dest, Body body);

  /// Move everything posted since the last drain onto the end of
  /// `batch` (ascending (tick, seq) by construction: ticks are monotone,
  /// seq increments).
  void drain_into(std::vector<Envelope>& batch);

  /// Total envelopes ever posted (not reset by drain).
  std::uint64_t posted() const { return seq_; }

 private:
  std::uint32_t origin_;
  std::uint64_t seed_;
  std::uint64_t base_stamp_;
  std::uint64_t seq_ = 0;
  std::vector<Envelope> pending_;
};

/// The epoch barrier's order check, O(n). The barrier drains every
/// partition's outbox into one batch in ascending origin order, and a
/// partition posts only under the epoch it is running, so the batch is
/// already in envelope_before order and needs no merge. Throws
/// util::Error if it is not.
void check_barrier_order(const std::vector<Envelope>& batch);

}  // namespace osprey::shard
