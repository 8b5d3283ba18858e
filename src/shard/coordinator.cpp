#include "shard/coordinator.hpp"

#include <charconv>
#include <set>

#include "util/error.hpp"
#include "util/value.hpp"

namespace osprey::shard {

namespace {

void append_int(std::int64_t v, std::string& out) {
  char buf[24];  // holds any int64
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

Coordinator::Coordinator(std::uint64_t seed, bool tracing)
    : tracing_(tracing), outbox_(kOrigin, seed) {
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
    outbox_.post(tick_, feed.name, RegisterFeed{spec.name, feed});
  }
  campaign.behind = campaign.members.size();
  if (spec.aggregate) {
    outbox_.post(tick_, hub_key(spec.name),
                 RegisterAggregate{spec.name, spec.aggregate_poll,
                                   spec.feeds.size()});
  }
  campaigns_registered_->inc();
  if (tracing_) {
    tracer_.instant(obs::Category::kOther, "coord:register:" + spec.name,
                    now_ns_, obs::kNoSpan,
                    std::to_string(spec.feeds.size()) + " feeds");
  }
}

void Coordinator::begin_tick(std::uint64_t tick, std::uint64_t now_ns) {
  tick_ = tick;
  now_ns_ = now_ns;
}

void Coordinator::deliver(const std::vector<Envelope>& batch) {
  for (const Envelope& env : batch) {
    messages_->inc();
    if (const auto* report = std::get_if<VersionReport>(&env.body)) {
      on_version(*report);
    }
    // Other bodies are counted but otherwise ignored: forward
    // compatibility for partition-side extensions.
  }
}

void Coordinator::on_version(const VersionReport& report) {
  version_reports_->inc();
  if (report.kind == VersionKind::kAggregate) {
    // Hub partitions are keyed "<campaign>-hub"; recover the campaign
    // from the partition key.
    for (auto& [name, campaign] : campaigns_) {
      if (hub_key(name) == report.partition) {
        ++campaign.aggregates;
        break;
      }
    }
    return;
  }
  auto it = feed_index_.find(report.feed);
  if (it == feed_index_.end()) return;
  Campaign& campaign = *it->second.campaign;
  Member& member = campaign.members[it->second.member];
  const bool was_behind = member.latest <= member.consumed;
  member.latest = report.version;
  member.uuid = report.uuid;
  member.checksum = report.checksum;
  const bool is_behind = member.latest <= member.consumed;
  if (was_behind && !is_behind) --campaign.behind;
  if (!was_behind && is_behind) ++campaign.behind;
  if (campaign.aggregate && campaign.behind == 0) dispatch_round(campaign);
}

void Coordinator::dispatch_round(Campaign& campaign) {
  ++campaign.rounds;
  rounds_->inc();
  // The round's JSON, written directly: the keys of each object in
  // sorted order, as Value::to_json would write its tree.
  std::string json;
  json += "{\"campaign\":";
  util::append_json_string(campaign.name, json);
  json += ",\"inputs\":[";
  for (std::size_t i = 0; i < campaign.members.size(); ++i) {
    Member& member = campaign.members[i];
    member.consumed = member.latest;
    json += i == 0 ? "{\"checksum\":" : ",{\"checksum\":";
    util::append_json_string(member.checksum, json);
    json += ",\"feed\":";
    util::append_json_string(member.feed, json);
    json += ",\"uuid\":";
    util::append_json_string(member.uuid, json);
    json += ",\"version\":";
    append_int(member.latest, json);
    json += '}';
  }
  json += "],\"round\":";
  append_int(static_cast<std::int64_t>(campaign.rounds), json);
  json += '}';
  campaign.behind = campaign.members.size();
  outbox_.post(tick_, hub_key(campaign.name), AggregateInput{std::move(json)});
  if (tracing_) {
    tracer_.instant(obs::Category::kOther, "coord:round:" + campaign.name,
                    now_ns_, obs::kNoSpan,
                    "round " + std::to_string(campaign.rounds));
  }
}

std::vector<Envelope> Coordinator::collect() {
  std::vector<Envelope> out;
  outbox_.drain_into(out);
  return out;
}

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
