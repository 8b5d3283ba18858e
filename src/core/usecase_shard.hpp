#pragma once

/// \file usecase_shard.hpp
/// Shared builder for the sharded-scale surveillance workload: N feeds
/// publishing weekly (staggered across weekdays) plus one cross-region
/// aggregation. Used by osprey_bench's feeds workloads and the shard
/// tests so they all drive literally the same campaign.

#include <string>

#include "shard/campaign.hpp"

namespace osprey::core {

/// A campaign of `num_feeds` feeds named "<name>-feed<i>", each
/// publishing "feed<i>-week<w>" at (week*7 + i%7) days for `days` days,
/// polled every `poll_period`, with an ALL-member aggregation hub.
osprey::shard::CampaignSpec make_surveillance_campaign(
    const std::string& name, int num_feeds, int days,
    osprey::shard::SimTime poll_period = osprey::util::kDay);

}  // namespace osprey::core
