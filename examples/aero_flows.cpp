/// AERO in isolation: register an ingestion flow and two analysis flows
/// (one ANY-triggered, one ALL-triggered) against scripted upstream
/// sources, and watch the event-driven automation do its thing.

#include <algorithm>
#include <cstdio>

#include "aero/platform.hpp"
#include "util/table.hpp"

using namespace osprey;
using util::Value;
using util::ValueObject;
using util::kDay;
using util::kMinute;
using util::kSecond;

int main() {
  aero::OspreyPlatform platform;
  aero::AeroServer& server = platform.aero();
  fabric::StorageEndpoint& eagle = platform.add_storage_endpoint("eagle");
  fabric::StorageEndpoint& scratch = platform.add_storage_endpoint("scratch");
  fabric::ComputeEndpoint& login = platform.add_login_endpoint("login", 2);
  eagle.create_collection("data", server.token());
  scratch.create_collection("staging", server.token());

  // A transformation (CSV row counter) and an analysis (concatenation).
  std::string transform_fn = login.register_function(
      "count-rows",
      [](const Value& args) {
        const std::string& input = args.at("input").as_string();
        long rows = static_cast<long>(
            std::count(input.begin(), input.end(), '\n'));
        ValueObject out;
        out["output"] =
            Value("rows=" + std::to_string(rows) + "\n" + input);
        return Value(std::move(out));
      },
      30 * kSecond);
  std::string analysis_fn = login.register_function(
      "summarize",
      [](const Value& args) {
        std::string acc = "summary of " +
                          std::to_string(args.at("inputs").size()) +
                          " inputs\n";
        ValueObject outputs;
        outputs["summary.txt"] = Value(acc);
        ValueObject out;
        out["outputs"] = Value(std::move(outputs));
        return Value(std::move(out));
      },
      kMinute);

  // Two upstream feeds on different update cadences.
  auto feed_a = std::make_shared<aero::ScriptedSource>(
      "https://upstream/feed-a",
      std::vector<std::pair<fabric::SimTime, std::string>>{
          {0, "a,v1\n1,v1\n"}, {3 * kDay, "a,v2\n1,v2\n2,v2\n"}});
  auto feed_b = std::make_shared<aero::ScriptedSource>(
      "https://upstream/feed-b",
      std::vector<std::pair<fabric::SimTime, std::string>>{
          {kDay, "b,v1\n"}, {5 * kDay, "b,v2\n"}});

  auto make_spec = [&](const std::string& name,
                       std::shared_ptr<aero::DataSource> src) {
    aero::IngestionFlowSpec spec;
    spec.name = name;
    spec.source = std::move(src);
    spec.poll_period = kDay;
    spec.compute = &login;
    spec.function_id = transform_fn;
    spec.staging = &scratch;
    spec.staging_collection = "staging";
    spec.storage = &eagle;
    spec.collection = "data";
    spec.base_path = name;
    return spec;
  };
  auto ha = server.register_ingestion(make_spec("ingest-a", feed_a));
  auto hb = server.register_ingestion(make_spec("ingest-b", feed_b));
  std::printf("registered ingestion flows; transformed-data UUIDs:\n  %s\n  %s\n",
              ha.output_uuid.c_str(), hb.output_uuid.c_str());

  auto make_analysis = [&](const std::string& name,
                           std::vector<std::string> inputs,
                           aero::TriggerPolicy policy) {
    aero::AnalysisFlowSpec spec;
    spec.name = name;
    spec.input_uuids = std::move(inputs);
    spec.policy = policy;
    spec.compute = &login;
    spec.function_id = analysis_fn;
    spec.staging = &scratch;
    spec.staging_collection = "staging";
    spec.storage = &eagle;
    spec.collection = "data";
    spec.base_path = name;
    spec.output_names = {"summary.txt"};
    return spec;
  };
  server.register_analysis(make_analysis(
      "any-of-a", {ha.output_uuid}, aero::TriggerPolicy::kAny));
  server.register_analysis(make_analysis(
      "all-of-ab", {ha.output_uuid, hb.output_uuid},
      aero::TriggerPolicy::kAll));

  platform.run_days(7);

  std::printf("\nafter 7 virtual days: %llu polls, %llu updates, "
              "%llu analysis runs\n",
              static_cast<unsigned long long>(server.polls()),
              static_cast<unsigned long long>(server.updates_detected()),
              static_cast<unsigned long long>(server.analysis_runs()));

  util::TextTable table({"run", "flow", "trigger", "status", "started",
                         "duration"});
  for (const auto& run : server.db().runs()) {
    table.add_row({std::to_string(run.run_id), run.flow_name, run.trigger,
                   run.status == aero::RunStatus::kSucceeded ? "ok" : "FAIL",
                   util::format_sim_time(run.started),
                   util::format_duration(run.ended - run.started)});
  }
  std::printf("\nprovenance (all runs):\n%s", table.render().c_str());

  std::printf("\nprovenance DOT graph:\n%s",
              server.db().provenance_dot().c_str());
  return 0;
}
