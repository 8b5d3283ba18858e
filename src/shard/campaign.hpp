#pragma once

/// \file campaign.hpp
/// Declarative surveillance-campaign specs for the ShardedFabric. A
/// campaign names a set of upstream feeds (each becomes one partition
/// with its own ingestion + analysis flows) and optionally a
/// cross-region aggregation hosted on a dedicated hub partition. Specs
/// are plain data: the coordination layer ships them to partitions
/// inside registration envelopes, so this header deliberately knows
/// nothing about the orchestration services.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/sim_time.hpp"

namespace osprey::shard {

using osprey::util::SimTime;

/// One upstream feed: a scripted publication timeline plus polling
/// parameters. The feed name doubles as its partition key, so it must
/// be unique across every campaign registered on a fabric and must not
/// contain '/' (reserved by the "<partition>/<uuid>" serve addressing).
struct FeedSpec {
  std::string name;
  /// (publish time, payload) — sorted ascending by time.
  std::vector<std::pair<SimTime, std::string>> timeline;
  SimTime poll_period = osprey::util::kDay;
};

/// A campaign: feeds + optional ALL-member aggregation.
struct CampaignSpec {
  std::string name;
  std::vector<FeedSpec> feeds;
  /// Host a hub partition aggregating every member's analysis output.
  bool aggregate = true;
  SimTime aggregate_poll = osprey::util::kDay;
};

}  // namespace osprey::shard
