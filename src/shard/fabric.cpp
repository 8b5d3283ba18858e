#include "shard/fabric.hpp"

#include <algorithm>

#include "obs/export.hpp"
#include "obs/merge.hpp"
#include "util/error.hpp"

namespace osprey::shard {

ShardedFabric::ShardedFabric(ShardedFabricConfig config)
    : config_(config), coordinator_(config.seed, config.tracing) {
  OSPREY_REQUIRE(config_.num_shards >= 1, "need at least one shard");
  OSPREY_REQUIRE(config_.epoch > 0, "epoch must be positive");
  if (config_.num_shards > 1) {
    pool_ = std::make_unique<osprey::util::ThreadPool>(config_.num_shards);
  }
}

void ShardedFabric::set_chaos(const fabric::FaultPlan& master) {
  OSPREY_REQUIRE(partitions_.empty(),
                 "set_chaos must precede register_campaign");
  master_chaos_ = std::make_unique<fabric::FaultPlan>(master);
}

void ShardedFabric::create_partition(const std::string& key) {
  PartitionConfig config;
  config.key = key;
  config.ordinal = static_cast<std::uint32_t>(partitions_.size() + 1);
  config.seed = config_.seed;
  config.tracing = config_.tracing;
  auto partition = std::make_unique<ShardPartition>(std::move(config));
  if (master_chaos_) partition->enable_chaos(*master_chaos_);
  by_key_[key] = partitions_.size();
  keys_.push_back(key);
  partitions_.push_back(std::move(partition));
  inboxes_.emplace_back();
}

void ShardedFabric::register_campaign(const CampaignSpec& spec) {
  // A rejected campaign must leave no partition behind. The coordinator
  // rejects a feed named twice; the hub key must differ from every feed.
  std::vector<std::string> keys;
  for (const FeedSpec& feed : spec.feeds) keys.push_back(feed.name);
  if (spec.aggregate) keys.push_back(Coordinator::hub_key(spec.name));
  for (const std::string& key : keys) {
    require_partition_key(key);
    OSPREY_REQUIRE(key != "coordinator",
                   "partition key 'coordinator' is reserved");
    OSPREY_REQUIRE(by_key_.count(key) == 0,
                   "duplicate partition key: " + key);
  }
  OSPREY_REQUIRE(!spec.aggregate || std::find(keys.begin(), keys.end() - 1,
                                              keys.back()) == keys.end() - 1,
                 "duplicate partition key: " + keys.back());
  coordinator_.register_campaign(spec);
  for (const std::string& key : keys) create_partition(key);
}

void ShardedFabric::run_until(SimTime t) {
  OSPREY_REQUIRE(t >= now_, "run_until must not go backwards");
  while (now_ < t) {
    step_epoch(std::min<SimTime>(now_ + config_.epoch, t));
  }
}

void ShardedFabric::step_epoch(SimTime until) {
  // 1. Route the coordinator's pending mail to per-partition inboxes
  //    (epoch-k posts are delivered at the start of epoch k+1).
  for (Envelope& env : coordinator_.collect()) {
    auto it = by_key_.find(env.dest);
    OSPREY_REQUIRE(it != by_key_.end(),
                   "envelope addressed to unknown partition: " + env.dest);
    inboxes_[it->second].push_back(std::move(env));
  }

  // 2. The workers pull partitions off one cursor. Those with mail go
  //    first: a delivery (the hub's aggregation round) is work beyond
  //    the timers, so it starts while the rest are still queued. Each
  //    partition is run by exactly one task; the parallel_for join is
  //    the epoch barrier (a happens-before edge, so the collection
  //    below is race-free), and its submit edge publishes order_.
  order_.clear();
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    if (!inboxes_[i].empty()) order_.push_back(i);
  }
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    if (inboxes_[i].empty()) order_.push_back(i);
  }
  const std::uint64_t tick = tick_;
  auto run_partition = [&](std::size_t k) {
    const std::size_t index = order_[k];
    partitions_[index]->run_epoch(tick, until, inboxes_[index]);
  };
  if (pool_) {
    pool_->parallel_for(order_.size(), run_partition);
  } else {
    for (std::size_t k = 0; k < order_.size(); ++k) run_partition(k);
  }

  // 3. Barrier: drain the outboxes in ordinal order into one batch.
  //    Every envelope in it was posted under this tick, so ordinal
  //    order is already the (tick, origin, seq) total order — a pure
  //    function of logical state, independent of which threads ran
  //    which partition, and in what order.
  for (auto& partition : partitions_) partition->drain_outbox(barrier_);
  check_barrier_order(barrier_);

  // 4. The coordinator consumes the batch; its responses are posted
  //    under this tick and routed at the next epoch start.
  coordinator_.begin_tick(tick_, obs::sim_ns(until));
  coordinator_.deliver(barrier_);
  barrier_.clear();

  now_ = until;
  ++tick_;
}

ShardPartition& ShardedFabric::partition(const std::string& key) {
  auto it = by_key_.find(key);
  OSPREY_REQUIRE(it != by_key_.end(), "unknown partition: " + key);
  return *partitions_[it->second];
}

serve::ResultCache::Result ShardedFabric::lookup(
    const std::string& qualified_uuid) {
  std::size_t slash = qualified_uuid.find('/');
  OSPREY_REQUIRE(slash != std::string::npos,
                 "expected '<partition>/<uuid>': " + qualified_uuid);
  return partition(qualified_uuid.substr(0, slash))
      .lookup(qualified_uuid.substr(slash + 1));
}

std::uint64_t ShardedFabric::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& partition : partitions_) {
    total += partition->events_processed();
  }
  return total;
}

std::string ShardedFabric::merged_incident_log() const {
  std::string out;
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    const fabric::IncidentLog* log = partitions_[i]->incident_log();
    if (log == nullptr) continue;
    out += "=== shard " + keys_[i] + " ===\n";
    out += log->to_string();
  }
  return out;
}

std::vector<obs::SpanRecord> ShardedFabric::merged_spans() const {
  std::vector<obs::LabeledSpans> sources;
  sources.reserve(partitions_.size() + 1);
  sources.push_back(
      obs::LabeledSpans{"coordinator", coordinator_.tracer().snapshot()});
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    sources.push_back(obs::LabeledSpans{keys_[i], partitions_[i]->spans()});
  }
  return obs::merge_labeled_spans(std::move(sources));
}

std::string ShardedFabric::merged_chrome_trace() const {
  return obs::chrome_trace_json(merged_spans());
}

namespace {

std::vector<obs::LabeledRegistry> labeled_registries(
    const Coordinator& coordinator, const std::vector<std::string>& keys,
    const std::vector<std::unique_ptr<ShardPartition>>& partitions) {
  std::vector<obs::LabeledRegistry> sources;
  sources.reserve(partitions.size() + 1);
  sources.push_back(obs::LabeledRegistry{"coordinator", &coordinator.metrics()});
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    sources.push_back(obs::LabeledRegistry{keys[i], &partitions[i]->metrics()});
  }
  return sources;
}

}  // namespace

osprey::util::Value ShardedFabric::merged_metrics() const {
  return obs::merged_metrics_snapshot(
      labeled_registries(coordinator_, keys_, partitions_));
}

std::string ShardedFabric::merged_prometheus() const {
  return obs::prometheus_text_sharded(
      labeled_registries(coordinator_, keys_, partitions_));
}

}  // namespace osprey::shard
