#pragma once

/// \file fabric.hpp
/// ShardedFabric (DESIGN.md §7): partitions, each an event loop of its
/// own, advancing in epoch lockstep on `num_shards` worker threads. The
/// partition is both the determinism unit and the unit of work:
///
///   every epoch: route coordinator mail → [parallel] the workers pull
///   partitions, those with inbox mail first, each delivering its inbox
///   and running its event loop to the epoch boundary → join (barrier)
///   → drain every outbox, in ordinal order, into one batch already in
///   (tick, origin, seq) order → coordinator consumes the batch and
///   posts responses for the next epoch.
///
/// Messages posted in epoch k are delivered at the START of epoch k+1,
/// so no partition ever observes another mid-epoch; a partition changes
/// only through its own loop and the envelopes it is handed, so which
/// worker ran it, and when, changes nothing. With the stable-ordinal
/// barrier order this makes every run — and every merged artifact:
/// Chrome trace, incident log, metrics snapshot, Prometheus export —
/// byte-identical across shard counts, thread interleavings and replays
/// of the same seed.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fabric/fault.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "shard/campaign.hpp"
#include "shard/coordinator.hpp"
#include "shard/mailbox.hpp"
#include "shard/partition.hpp"
#include "util/thread_pool.hpp"
#include "util/value.hpp"

namespace osprey::shard {

struct ShardedFabricConfig {
  /// Worker threads that pull partitions each epoch (1: the caller
  /// alone, no pool).
  std::size_t num_shards = 1;
  SimTime epoch = osprey::util::kDay;
  std::uint64_t seed = 0x05FA;
  /// Per-partition tracing (off for throughput benches).
  bool tracing = true;
};

class ShardedFabric {
 public:
  explicit ShardedFabric(ShardedFabricConfig config = {});

  ShardedFabric(const ShardedFabric&) = delete;
  ShardedFabric& operator=(const ShardedFabric&) = delete;

  /// Master chaos plan; every subsequently created partition forks its
  /// own seeded replica. Must precede register_campaign.
  void set_chaos(const fabric::FaultPlan& master);

  /// Create one partition per feed (key = feed name) plus the
  /// campaign's aggregation hub, and hand the spec to the coordinator
  /// (whose registration envelopes land at the next epoch boundary).
  void register_campaign(const CampaignSpec& spec);

  /// Advance every partition in epoch lockstep to virtual time `t`.
  void run_until(SimTime t);

  SimTime now() const { return now_; }
  /// Completed epochs.
  std::uint64_t epochs() const { return tick_ - 1; }

  /// Serve a shard-qualified object: "<partition-key>/<uuid>".
  serve::ResultCache::Result lookup(const std::string& qualified_uuid);

  std::size_t num_partitions() const { return partitions_.size(); }
  const std::vector<std::string>& partition_keys() const { return keys_; }
  ShardPartition& partition(const std::string& key);
  Coordinator& coordinator() { return coordinator_; }
  const Coordinator& coordinator() const { return coordinator_; }

  /// Sum of events processed across every partition's loop.
  std::uint64_t events_processed() const;

  // --- merged, canonical artifacts (byte-identical across replays and
  // shard counts; the replay sweep compares these) -------------------
  /// Per-partition incident logs in ordinal order, with shard headers.
  std::string merged_incident_log() const;
  /// Coordinator + partition spans, shard-labeled, canonical order.
  std::vector<obs::SpanRecord> merged_spans() const;
  std::string merged_chrome_trace() const;
  osprey::util::Value merged_metrics() const;
  std::string merged_prometheus() const;

 private:
  void create_partition(const std::string& key);
  void step_epoch(SimTime until);

  ShardedFabricConfig config_;
  Coordinator coordinator_;
  std::vector<std::unique_ptr<ShardPartition>> partitions_;  // ordinal order
  std::vector<std::string> keys_;                            // parallel
  /// Per-partition coordinator mail for the next epoch (parallel).
  std::vector<std::vector<Envelope>> inboxes_;
  /// The barrier's batch, reused across epochs.
  std::vector<Envelope> barrier_;
  std::map<std::string, std::size_t> by_key_;
  /// The epoch's pull order, rebuilt each epoch in place: the indexes of
  /// partitions with inbox mail, then the rest, each in ordinal order.
  std::vector<std::size_t> order_;
  std::unique_ptr<fabric::FaultPlan> master_chaos_;
  std::unique_ptr<osprey::util::ThreadPool> pool_;
  SimTime now_ = 0;
  std::uint64_t tick_ = 1;
};

}  // namespace osprey::shard
