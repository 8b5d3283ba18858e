#include "shard/coordinator.hpp"

#include <set>

#include "util/error.hpp"

namespace osprey::shard {

using osprey::util::Value;
using osprey::util::ValueArray;
using osprey::util::ValueObject;

Coordinator::Coordinator(std::uint64_t seed) : outbox_(kOrigin, seed) {
  tracer_.set_shard_label("coordinator");
  messages_ = &metrics_.counter("shard_coord_messages_total",
                                "envelopes delivered to the coordinator");
  version_reports_ =
      &metrics_.counter("shard_coord_versions_total",
                        "data-version reports received from partitions");
  rounds_ = &metrics_.counter("shard_coord_rounds_total",
                              "cross-region aggregation rounds dispatched");
  campaigns_registered_ = &metrics_.counter(
      "shard_coord_campaigns_total", "campaigns registered on the fabric");
}

std::string Coordinator::hub_key(const std::string& campaign) {
  return campaign + "-hub";
}

void Coordinator::register_campaign(const CampaignSpec& spec) {
  OSPREY_REQUIRE(!spec.name.empty(), "campaign needs a name");
  OSPREY_REQUIRE(!spec.feeds.empty(), "campaign needs at least one feed");
  OSPREY_REQUIRE(campaigns_.count(spec.name) == 0,
                 "campaign already registered: " + spec.name);

  std::set<std::string> names;
  for (const FeedSpec& feed : spec.feeds) {
    OSPREY_REQUIRE(names.insert(feed.name).second,
                   "duplicate feed in campaign: " + feed.name);
    OSPREY_REQUIRE(feed_index_.count(feed.name) == 0,
                   "feed already registered on the fabric: " + feed.name);
  }

  Campaign& campaign = campaigns_[spec.name];
  campaign.name = spec.name;
  campaign.aggregate = spec.aggregate;
  for (const FeedSpec& feed : spec.feeds) {
    feed_index_[feed.name] = MemberRef{&campaign, campaign.members.size()};
    campaign.members.push_back(Member{feed.name, 0, 0, {}, {}});
    ValueObject payload;
    payload["campaign"] = Value(spec.name);
    payload["feed"] = feed.to_value();
    outbox_.post(tick_, feed.name, "register-feed", Value(std::move(payload)));
  }
  campaign.behind = campaign.members.size();
  if (spec.aggregate) {
    ValueObject payload;
    payload["campaign"] = Value(spec.name);
    payload["poll_period"] =
        Value(static_cast<std::int64_t>(spec.aggregate_poll));
    payload["members"] = Value(static_cast<std::int64_t>(spec.feeds.size()));
    outbox_.post(tick_, hub_key(spec.name), "register-aggregate",
                 Value(std::move(payload)));
  }
  campaigns_registered_->inc();
  tracer_.instant(obs::Category::kOther, "coord:register:" + spec.name,
                  now_ns_, obs::kNoSpan,
                  std::to_string(spec.feeds.size()) + " feeds");
}

void Coordinator::begin_tick(std::uint64_t tick, std::uint64_t now_ns) {
  tick_ = tick;
  now_ns_ = now_ns;
}

void Coordinator::deliver(const std::vector<Envelope>& merged) {
  for (const Envelope& env : merged) {
    messages_->inc();
    if (env.topic == "version") {
      on_version(env);
    }
    // Unknown topics are counted but otherwise ignored: forward
    // compatibility for partition-side extensions.
  }
}

void Coordinator::on_version(const Envelope& env) {
  version_reports_->inc();
  const ValueObject& report = env.payload.as_object();
  const std::string& kind = env.payload.at("kind").as_string();
  if (kind == "aggregate") {
    // Hub partitions are keyed "<campaign>-hub"; recover the campaign
    // from the partition key.
    const std::string& partition = env.payload.at("partition").as_string();
    for (auto& [name, campaign] : campaigns_) {
      if (hub_key(name) == partition) {
        ++campaign.aggregates;
        break;
      }
    }
    return;
  }
  if (kind != "analysis") return;
  auto feed = report.find("feed");
  if (feed == report.end()) return;
  auto it = feed_index_.find(feed->second.as_string());
  if (it == feed_index_.end()) return;
  Campaign& campaign = *it->second.campaign;
  Member& member = campaign.members[it->second.member];
  const bool was_behind = member.latest <= member.consumed;
  member.latest = static_cast<int>(env.payload.at("version").as_int());
  member.uuid = env.payload.at("uuid").as_string();
  member.checksum = env.payload.at("checksum").as_string();
  const bool is_behind = member.latest <= member.consumed;
  if (was_behind && !is_behind) --campaign.behind;
  if (!was_behind && is_behind) ++campaign.behind;
  if (campaign.aggregate && campaign.behind == 0) dispatch_round(campaign);
}

void Coordinator::dispatch_round(Campaign& campaign) {
  ++campaign.rounds;
  rounds_->inc();
  ValueArray inputs;
  inputs.reserve(campaign.members.size());
  for (Member& member : campaign.members) {
    member.consumed = member.latest;
    ValueObject input;
    input["feed"] = Value(member.feed);
    input["uuid"] = Value(member.uuid);
    input["version"] = Value(static_cast<std::int64_t>(member.latest));
    input["checksum"] = Value(member.checksum);
    inputs.push_back(Value(std::move(input)));
  }
  campaign.behind = campaign.members.size();
  ValueObject payload;
  payload["campaign"] = Value(campaign.name);
  payload["round"] = Value(static_cast<std::int64_t>(campaign.rounds));
  payload["inputs"] = Value(std::move(inputs));
  outbox_.post(tick_, hub_key(campaign.name), "aggregate-input",
               Value(std::move(payload)));
  tracer_.instant(obs::Category::kOther, "coord:round:" + campaign.name,
                  now_ns_, obs::kNoSpan,
                  "round " + std::to_string(campaign.rounds));
}

std::vector<Envelope> Coordinator::collect() { return outbox_.drain(); }

std::uint64_t Coordinator::rounds_dispatched(
    const std::string& campaign) const {
  auto it = campaigns_.find(campaign);
  return it == campaigns_.end() ? 0 : it->second.rounds;
}

std::uint64_t Coordinator::aggregates_published(
    const std::string& campaign) const {
  auto it = campaigns_.find(campaign);
  return it == campaigns_.end() ? 0 : it->second.aggregates;
}

}  // namespace osprey::shard
