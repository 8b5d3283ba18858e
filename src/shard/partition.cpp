#include "shard/partition.hpp"

#include <map>
#include <optional>
#include <utility>

#include "aero/source.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/value.hpp"

namespace osprey::shard {

using osprey::util::JsonMember;
using osprey::util::Value;
using osprey::util::ValueObject;

/// Upstream "URL" fed by coordinator envelopes instead of a scripted
/// timeline: the hub's aggregation rides the normal AERO ingestion path
/// (poll → checksum change → transform → publish), with each
/// AggregateInput's JSON becoming the next upstream payload. Every poll
/// between two rounds returns the same buffer.
class MailboxSource final : public aero::DataSource {
 public:
  explicit MailboxSource(std::string url) : url_(std::move(url)) {}

  std::string url() const override { return url_; }
  const std::shared_ptr<const std::string>& fetch(SimTime) override {
    return payload_;
  }

  void set_payload(std::string payload) {
    payload_ = std::make_shared<const std::string>(std::move(payload));
  }

 private:
  std::string url_;
  std::shared_ptr<const std::string> payload_;
};

namespace {

/// Login-node slots and the virtual cost of each registered function.
constexpr int kLoginSlots = 2;
constexpr SimTime kTransformCost = 30 * osprey::util::kSecond;
constexpr SimTime kAnalysisCost = osprey::util::kMinute;
constexpr SimTime kAggregateCost = osprey::util::kMinute;

/// Partition-stable uuid seed: a function of the key only, so the uuid
/// stream is invariant under the shard count AND across crash-recovery
/// restarts (WAL replay re-draws uuids in lockstep from this seed).
std::uint64_t partition_uuid_seed(const std::string& key) {
  return osprey::util::mix64(0xAE70 ^ stable_key_hash(key));
}

Value transform_fn_impl(const Value& args) {
  ValueObject out;
  out["output"] = args.at("input");
  return Value(std::move(out));
}

Value analysis_fn_impl(const Value& args) {
  ValueObject outputs;
  outputs["out"] =
      Value("analyzed:" + std::to_string(args.at("inputs").size()));
  ValueObject out;
  out["outputs"] = Value(std::move(outputs));
  return Value(std::move(out));
}

/// A round's member as parse_json's object would hold it.
const JsonMember& round_member(const std::map<std::string, JsonMember>& round,
                               const std::string& key) {
  auto it = round.find(key);
  if (it == round.end()) throw osprey::util::NotFound("missing key: " + key);
  return it->second;
}

}  // namespace

Value hub_aggregate(const Value& args) {
  const std::map<std::string, JsonMember> round =
      osprey::util::parse_json_members(args.at("input").as_string());
  const std::int64_t number = round_member(round, "round").value.as_int();
  const JsonMember& inputs = round_member(round, "inputs");
  OSPREY_REQUIRE(inputs.value.is_array() || inputs.value.is_object(),
                 "size() on non-container value");
  ValueObject out;
  out["output"] = Value("aggregated:round" + std::to_string(number) + ":" +
                        std::to_string(inputs.size));
  return Value(std::move(out));
}

void require_partition_key(const std::string& key) {
  OSPREY_REQUIRE(!key.empty(), "partition key must not be empty");
  OSPREY_REQUIRE(key.find('/') == std::string::npos,
                 "partition key must not contain '/': " + key);
}

ShardPartition::ShardPartition(PartitionConfig config)
    : config_(std::move(config)),
      platform_("aero/" + config_.key, partition_uuid_seed(config_.key),
                config_.tracing),
      outbox_(config_.ordinal, config_.seed) {
  require_partition_key(config_.key);
  OSPREY_REQUIRE(config_.ordinal >= 1, "ordinal 0 is the coordinator");

  platform_.tracer().set_shard_label(config_.key);
  aero::AeroServer& server = platform_.aero();
  fabric::StorageEndpoint& eagle = platform_.add_storage_endpoint("eagle");
  fabric::StorageEndpoint& scratch = platform_.add_storage_endpoint("scratch");
  fabric::ComputeEndpoint& login =
      platform_.add_login_endpoint("login", kLoginSlots);
  eagle.create_collection("data", server.token());
  scratch.create_collection("staging", server.token());
  transform_fn_ = login.register_function("transform", transform_fn_impl,
                                          kTransformCost);
  analysis_fn_ = login.register_function("analysis", analysis_fn_impl,
                                         kAnalysisCost);
  aggregate_fn_ = login.register_function("aggregate", hub_aggregate,
                                          kAggregateCost);

  cache_ = std::make_unique<serve::ResultCache>(server, platform_.metrics());
  cache_->set_shard(config_.key);

  server.add_update_listener(
      [this](const std::string& uuid) { on_updated(uuid); });
}

ShardPartition::~ShardPartition() = default;

void ShardPartition::enable_chaos(const fabric::FaultPlan& master) {
  OSPREY_REQUIRE(chaos_ == nullptr, "chaos already enabled");
  chaos_ = std::make_unique<fabric::FaultPlan>(
      master.fork(stable_key_hash(config_.key)));
  platform_.install_fault_plan(chaos_.get());
}

aero::RecoveryStats ShardPartition::enable_durability(
    osprey::util::DurableFs& fs, const std::string& base_dir) {
  aero::WalOptions options;
  options.dir = base_dir + "/" + config_.key;
  return platform_.aero().enable_durability(fs, std::move(options));
}

void ShardPartition::deliver(Envelope& env) {
  if (auto* reg = std::get_if<RegisterFeed>(&env.body)) {
    OSPREY_REQUIRE(reg->feed.name == config_.key,
                   "feed routed to wrong partition: " + reg->feed.name);
    for (const FeedInfo& feed : feeds_) {
      if (feed.name == reg->feed.name) return;  // idempotent re-registration
    }
    add_feed(reg->feed);
  } else if (auto* agg = std::get_if<RegisterAggregate>(&env.body)) {
    if (aggregate_source_) return;  // idempotent re-registration
    host_aggregate(agg->campaign, agg->poll_period);
  } else if (auto* input = std::get_if<AggregateInput>(&env.body)) {
    OSPREY_REQUIRE(aggregate_source_ != nullptr,
                   "aggregate-input on a partition without a hub");
    aggregate_source_->set_payload(std::move(input->json));
  }
  // Other bodies are ignored (forward compatibility).
}

void ShardPartition::place(aero::FlowSpec& spec,
                           const std::string& function_id) {
  spec.compute = &platform_.compute_endpoint("login");
  spec.function_id = function_id;
  spec.staging = &platform_.storage_endpoint("scratch");
  spec.staging_collection = "staging";
  spec.storage = &platform_.storage_endpoint("eagle");
  spec.collection = "data";
}

void ShardPartition::add_feed(const FeedSpec& spec) {
  aero::IngestionFlowSpec ing;
  ing.name = "ingest-" + spec.name;
  ing.source = std::make_shared<aero::ScriptedSource>(
      "https://feeds/" + spec.name, spec.timeline);
  ing.poll_period = spec.poll_period;
  place(ing, transform_fn_);
  ing.base_path = "feed/" + spec.name;
  aero::IngestionHandles handles =
      platform_.aero().register_ingestion(std::move(ing));

  aero::AnalysisFlowSpec ana;
  ana.name = "analyze-" + spec.name;
  ana.input_uuids = {handles.output_uuid};
  ana.policy = aero::TriggerPolicy::kAny;
  place(ana, analysis_fn_);
  ana.base_path = "analysis/" + spec.name;
  ana.output_names = {"out"};
  std::string analysis_uuid =
      platform_.aero().register_analysis(std::move(ana))[0];

  tracked_[analysis_uuid] = Tracked{spec.name, VersionKind::kAnalysis};
  feeds_.push_back(FeedInfo{spec.name, handles.output_uuid, analysis_uuid});
}

void ShardPartition::host_aggregate(const std::string& campaign,
                                    SimTime poll_period) {
  aggregate_source_ =
      std::make_shared<MailboxSource>("mailbox://" + config_.key);
  aero::IngestionFlowSpec ing;
  ing.name = "aggregate-" + campaign;
  ing.source = aggregate_source_;
  ing.poll_period = poll_period;
  place(ing, aggregate_fn_);
  ing.base_path = "aggregate/" + campaign;
  aero::IngestionHandles handles =
      platform_.aero().register_ingestion(std::move(ing));

  aggregate_campaign_ = campaign;
  aggregate_uuid_ = handles.output_uuid;
  tracked_[handles.output_uuid] = Tracked{"", VersionKind::kAggregate};
}

void ShardPartition::on_updated(const std::string& uuid) {
  auto it = tracked_.find(uuid);
  if (it == tracked_.end()) return;
  std::optional<aero::DataVersion> latest =
      platform_.aero().db().latest_version(uuid);
  if (!latest) return;  // degradation flip without a new version
  int& posted = last_version_posted_[uuid];
  if (latest->version <= posted) return;
  posted = latest->version;
  outbox_.post(tick_, "",
               VersionReport{config_.key, it->second.feed, it->second.kind,
                             uuid, latest->version, latest->checksum,
                             latest->timestamp});
}

void ShardPartition::run_epoch(std::uint64_t tick, SimTime until,
                               std::vector<Envelope>& inbox) {
  // The tick is set first, so whatever delivery posts carries it too.
  tick_ = tick;
  for (Envelope& env : inbox) deliver(env);
  inbox.clear();
  platform_.run_until(until);
}

void ShardPartition::drain_outbox(std::vector<Envelope>& batch) {
  outbox_.drain_into(batch);
}

serve::ResultCache::Result ShardPartition::lookup(const std::string& uuid) {
  return cache_->lookup(uuid);
}

}  // namespace osprey::shard
