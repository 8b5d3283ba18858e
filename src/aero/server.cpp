#include "aero/server.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace osprey::aero {

using osprey::util::Value;
using osprey::util::ValueObject;

namespace {

/// Degradation reason recorded while an upstream source outage window
/// is active. Matched verbatim when the source answers again so only
/// outage-caused degradation is lifted by a successful fetch.
constexpr const char* kOutageReason = "upstream source outage";

/// Probe time after a breaker denies a trigger: one tick past its
/// reopen time. The breaker is open by construction here (allow() just
/// returned false with the breaker enabled), so reopen_at() is engaged;
/// fall back to the next tick if that invariant ever changes.
SimTime probe_time(const osprey::util::CircuitBreaker& breaker, SimTime now) {
  return breaker.reopen_at().value_or(now) + 1;
}

}  // namespace

AeroServer::AeroServer(fabric::EventLoop& loop, fabric::AuthService& auth,
                       fabric::TimerService& timers,
                       fabric::TransferService& transfers,
                       fabric::FlowsService& flows, std::string identity,
                       obs::MetricsRegistry* metrics, std::uint64_t uuid_seed)
    : loop_(loop),
      auth_(auth),
      timers_(timers),
      transfers_(transfers),
      flows_(flows),
      identity_(std::move(identity)),
      token_(auth.issue_full_token(identity_)),
      db_(uuid_seed) {
  if (metrics == nullptr) metrics = &loop.metrics();
  metrics_ = metrics;
  polls_ = &metrics->counter("aero_polls_total",
                             "upstream source polls performed");
  updates_detected_ = &metrics->counter(
      "aero_updates_detected_total", "polls whose payload checksum changed");
  ingestion_runs_ = &metrics->counter("aero_ingestion_runs_total",
                                      "ingestion flow runs started");
  analysis_triggers_ = &metrics->counter(
      "aero_analysis_triggers_total", "analysis trigger evaluations that fired");
  analysis_runs_ = &metrics->counter("aero_analysis_runs_total",
                                     "analysis flow runs started");
  failed_runs_ = &metrics->counter("aero_failed_runs_total",
                                   "ingestion or analysis runs that failed");
  retries_ = &metrics->counter("aero_retries_total",
                               "retry runs scheduled after a failure");
  fetch_errors_ = &metrics->counter("aero_fetch_errors_total",
                                    "upstream fetches that raised");
  ingestion_permanent_ = &metrics->counter(
      "aero_ingestion_permanent_failures_total",
      "ingestion triggers that exhausted their retry budget");
  analysis_permanent_ = &metrics->counter(
      "aero_analysis_permanent_failures_total",
      "analysis triggers that exhausted their retry budget");
  superseded_triggers_ = &metrics->counter(
      "aero_superseded_triggers_total",
      "triggers whose payload was replaced by fresher upstream data");
  analysis_superseded_ = &metrics->counter(
      "aero_analysis_superseded_triggers_total",
      "scheduled analysis retries made obsolete by a newer trigger");
  deferred_triggers_ = &metrics->counter(
      "aero_deferred_triggers_total",
      "triggers deferred because a circuit breaker was open");
  stale_serves_ = &metrics->counter("aero_stale_serves_total",
                                    "serve_latest calls answered stale");
  // Every version bump — flow-published or registered directly on the
  // db — flows through to the serving-tier update listeners, so a cache
  // can never keep serving a superseded version as a hit.
  db_.set_version_listener(
      [this](const std::string& uuid, int) { notify_updated(uuid); });
}

RecoveryStats AeroServer::enable_durability(osprey::util::DurableFs& fs,
                                            WalOptions options) {
  OSPREY_REQUIRE(wal_ == nullptr, "durability is already enabled");
  OSPREY_REQUIRE(db_.update_count() == 0,
                 "enable_durability must precede flow registration");
  wal_ = std::make_unique<Wal>(fs, std::move(options), *metrics_, tracer_,
                               [this] { return obs::sim_ns(loop_.now()); });
  RecoveryStats stats = wal_->recover(db_);
  // Runs in flight at the crash can never complete — their compute and
  // transfers died with the process. Adjudicate them failed (through
  // the WAL, so the adjudication itself is durable) and leave a
  // recovery incident; re-triggers then start from clean provenance.
  for (const RunRecord& run : db_.runs()) {
    if (run.status != RunStatus::kRunning) continue;
    std::uint64_t run_id = run.run_id;
    db_.finish_run(run_id, RunStatus::kFailed, {}, loop_.now());
    record_incident(fabric::IncidentCategory::kRecovery, "run-interrupted",
                    run.flow_name,
                    "run #" + std::to_string(run_id) +
                        " adjudicated failed by crash recovery");
  }
  // Re-announce every recovered object: any serving-tier cache that
  // re-attaches after the restart starts from invalidated entries, so a
  // pre-crash answer can never be served as fresh.
  for (const std::string& uuid : db_.object_uuids()) {
    notify_updated(uuid);
  }
  if (stats.checkpoint_loaded || stats.replayed > 0) {
    OSPREY_LOG_INFO("aero", "recovered metadata: checkpoint lsn "
                            << stats.checkpoint_lsn << ", " << stats.replayed
                            << " WAL record(s) replayed, " << stats.torn
                            << " torn, " << stats.corrupt << " corrupt");
  }
  return stats;
}

std::string AeroServer::intern_object(const std::string& name,
                                      const std::string& producer) {
  for (const MetadataDb::ObjectSummary& s : db_.find_objects(name)) {
    if (s.name == name && s.producer_flow == producer) return s.uuid;
  }
  return db_.register_object(name, producer);
}

AeroServer::FlowTrigger AeroServer::new_trigger(
    const FlowSpec& spec, FlowKind kind,
    const std::vector<std::string>& outputs) {
  const bool ingestion = kind == FlowKind::kIngestion;
  const std::string what = ingestion ? "ingestion" : "analysis";
  OSPREY_REQUIRE(spec.compute != nullptr, what + " needs a compute endpoint");
  OSPREY_REQUIRE(spec.staging != nullptr && spec.storage != nullptr,
                 what + " needs staging and storage endpoints");
  OSPREY_REQUIRE(spec.compute->has_function(spec.function_id),
                 std::string(ingestion ? "transformation" : "analysis") +
                     " function is not registered on the endpoint");
  FlowTrigger t;
  t.name = spec.name;
  t.retry = spec.retry;
  t.breaker = osprey::util::CircuitBreaker(spec.breaker);
  t.retry_key = osprey::util::fnv1a(spec.name);
  t.permanent = ingestion ? ingestion_permanent_ : analysis_permanent_;
  t.superseded = ingestion ? superseded_triggers_ : analysis_superseded_;
  for (const std::string& output : outputs) {
    t.products.push_back(intern_object(spec.name + "/" + output, spec.name));
  }
  // Ingestion's first output, the raw payload, is an archive copy.
  t.announced.assign(t.products.begin() + (ingestion ? 1 : 0),
                     t.products.end());
  return t;
}

IngestionHandles AeroServer::register_ingestion(IngestionFlowSpec spec) {
  OSPREY_REQUIRE(spec.source != nullptr, "ingestion needs a data source");
  Ingestion ing;
  ing.trigger = new_trigger(spec, FlowKind::kIngestion, {"raw", "transformed"});
  ing.spec = std::move(spec);

  std::size_t index = ingestions_.size();
  ingestions_.push_back(std::move(ing));

  Ingestion& stored = ingestions_[index];
  stored.timer = timers_.every(
      stored.spec.poll_period, stored.spec.first_poll,
      [this, index] { poll_ingestion(index); }, token_,
      "poll:" + stored.spec.name);

  OSPREY_LOG_INFO("aero", "registered ingestion flow '" << stored.spec.name
                          << "' polling " << stored.spec.source->url());
  return IngestionHandles{stored.trigger.products[0],
                          stored.trigger.products[1], stored.timer};
}

AeroServer::Ingestion* AeroServer::find_ingestion(const std::string& name) {
  for (Ingestion& ing : ingestions_) {
    if (ing.spec.name == name) return &ing;
  }
  return nullptr;
}

const AeroServer::Ingestion* AeroServer::find_ingestion(
    const std::string& name) const {
  for (const Ingestion& ing : ingestions_) {
    if (ing.spec.name == name) return &ing;
  }
  return nullptr;
}

bool AeroServer::pause_ingestion(const std::string& name) {
  Ingestion* ing = find_ingestion(name);
  if (ing == nullptr || ing->cancelled || ing->paused) return false;
  timers_.cancel(ing->timer);
  ing->paused = true;
  OSPREY_LOG_INFO("aero", "paused ingestion '" << name << "'");
  return true;
}

bool AeroServer::resume_ingestion(const std::string& name) {
  Ingestion* ing = find_ingestion(name);
  if (ing == nullptr || ing->cancelled || !ing->paused) return false;
  // Re-arm at the next period boundary after "now".
  std::size_t index = static_cast<std::size_t>(ing - ingestions_.data());
  ing->timer = timers_.every(
      ing->spec.poll_period, loop_.now() + ing->spec.poll_period,
      [this, index] { poll_ingestion(index); }, token_,
      "poll:" + ing->spec.name);
  ing->paused = false;
  OSPREY_LOG_INFO("aero", "resumed ingestion '" << name << "'");
  return true;
}

bool AeroServer::ingestion_paused(const std::string& name) const {
  const Ingestion* ing = find_ingestion(name);
  return ing != nullptr && ing->paused;
}

bool AeroServer::cancel_ingestion(const std::string& name) {
  Ingestion* ing = find_ingestion(name);
  if (ing == nullptr || ing->cancelled) return false;
  if (!ing->paused) timers_.cancel(ing->timer);
  ing->cancelled = true;
  ing->paused = false;
  OSPREY_LOG_INFO("aero", "cancelled ingestion '" << name << "'");
  return true;
}

std::vector<std::string> AeroServer::register_analysis(AnalysisFlowSpec spec) {
  OSPREY_REQUIRE(!spec.input_uuids.empty(), "analysis needs input UUIDs");
  OSPREY_REQUIRE(!spec.output_names.empty(), "analysis needs output names");
  for (const std::string& uuid : spec.input_uuids) {
    OSPREY_REQUIRE(db_.has_object(uuid), "unknown input UUID: " + uuid);
  }
  Analysis analysis;
  analysis.trigger = new_trigger(spec, FlowKind::kAnalysis, spec.output_names);
  for (const std::string& uuid : spec.input_uuids) {
    analysis.consumed_version[uuid] = db_.latest_version_number(uuid);
  }
  analysis.spec = std::move(spec);

  analyses_.push_back(std::move(analysis));
  OSPREY_LOG_INFO("aero", "registered analysis flow '"
                          << analyses_.back().spec.name << "' with "
                          << analyses_.back().spec.input_uuids.size()
                          << " input(s)");
  return analyses_.back().trigger.products;
}

void AeroServer::poll_ingestion(std::size_t index) {
  Ingestion& ing = ingestions_[index];
  const std::string& output_uuid = ing.trigger.announced.front();
  polls_->inc();
  // Injected upstream outage: the source is unreachable for the whole
  // window, so every poll inside it is one failed fetch.
  if (fabric::FaultPlan* plan = loop_.fault_plan();
      plan != nullptr &&
      plan->in_window(fabric::FaultKind::kSourceOutage, "aero",
                      ing.spec.name, loop_.now())) {
    fetch_errors_->inc();
    OSPREY_LOG_WARN("aero", "fetch failed for '" << ing.spec.name
                            << "': upstream outage (injected)");
    // An unreachable upstream means the last-good estimates may lag
    // reality: flag the flow's data products stale until the source
    // answers again, so the serving tier never labels them fresh.
    // Guarded so a multi-day outage degrades once, not once per poll,
    // and never overwrites a stronger reason (retry exhaustion).
    if (degraded_.find(output_uuid) == degraded_.end()) {
      mark_degraded(ing.trigger.products, ing.spec.name, kOutageReason);
    }
    return;
  }
  // A flaky upstream must not take the whole server down; failed
  // fetches are counted and retried on the next poll.
  // The source's own buffer, valid until its next fetch: an unchanged
  // poll compares through it and copies nothing.
  const std::shared_ptr<const std::string>* fetched = nullptr;
  try {
    fetched = &ing.spec.source->fetch(loop_.now());
  } catch (const std::exception& e) {
    fetch_errors_->inc();
    OSPREY_LOG_WARN("aero", "fetch failed for '" << ing.spec.name
                            << "': " << e.what());
    return;
  }
  // The source answered: lift outage-caused degradation. Other reasons
  // (an exhausted retry budget) stand until a fresh version publishes.
  auto deg = degraded_.find(output_uuid);
  if (deg != degraded_.end() && deg->second == kOutageReason) {
    clear_degraded(ing.trigger.products, ing.spec.name);
  }
  const std::shared_ptr<const std::string>& payload = *fetched;
  if (payload == nullptr) return;
  // The same buffer, or identical bytes, hash to an identical checksum:
  // skip the SHA-256 on an unchanged poll. This is pure short-circuit —
  // the checksum comparison below is unchanged for payloads that differ.
  if (ing.last_payload != nullptr &&
      (payload == ing.last_payload || *payload == *ing.last_payload)) {
    return;
  }
  std::string checksum = osprey::crypto::Sha256::hash_hex(*payload);
  ing.last_payload = payload;
  if (checksum == ing.last_checksum) return;  // no upstream change

  updates_detected_->inc();
  ing.last_checksum = checksum;
  if (tracer_ != nullptr) {
    tracer_->instant(obs::Category::kAero, "update:" + ing.spec.name,
                     obs::sim_ns(loop_.now()), obs::kNoSpan,
                     "checksum " + checksum.substr(0, 12));
  }
  OSPREY_LOG_INFO("aero", "update detected for '" << ing.spec.name << "' at "
                          << osprey::util::format_sim_time(loop_.now()));
  if (!admit(FlowKind::kIngestion, index)) {
    ing.pending_payload = ing.last_payload;
    return;
  }
  ing.current_payload = ing.last_payload;
  run_flow(FlowKind::kIngestion, index, "poll:" + ing.spec.source->url());
}

void AeroServer::run_flow(FlowKind kind, std::size_t index,
                          const std::string& trigger) {
  const bool ingestion = kind == FlowKind::kIngestion;
  FlowTrigger& t = trigger_of(kind, index);
  t.running = true;
  (ingestion ? ingestion_runs_ : analysis_runs_)->inc();
  if (tracer_ != nullptr) {
    // Top-level span for the whole run; the wrapped flow and its steps
    // (and their transfers/compute tasks) nest underneath.
    t.span = tracer_->begin_span(
        obs::Category::kAero, (ingestion ? "ingest:" : "analyze:") + t.name,
        obs::sim_ns(loop_.now()), obs::kNoSpan, trigger);
  }

  // Snapshot the input versions an analysis run consumes.
  std::vector<VersionRef> inputs;
  if (!ingestion) {
    Analysis& analysis = analyses_[index];
    for (const std::string& uuid : analysis.spec.input_uuids) {
      int v = db_.latest_version_number(uuid);
      inputs.push_back(VersionRef{uuid, v});
      analysis.consumed_version[uuid] = v;
    }
  }
  std::uint64_t run_id =
      db_.start_run(t.name, kind, trigger, std::move(inputs),
                    spec_of(kind, index).compute->name(), loop_.now());

  // The announced objects are the outputs the publish steps store.
  auto outputs = std::make_shared<std::vector<Output>>();
  for (std::size_t k = 0; k < t.announced.size(); ++k) {
    outputs->push_back(Output{
        ingestion ? "transformed" : analyses_[index].spec.output_names[k],
        t.announced[k], "", ""});
  }
  fabric::FlowDefinition flow{t.name, {}};
  if (ingestion) {
    append_ingestion_steps(flow, index, outputs);
  } else {
    append_analysis_steps(flow, index, outputs);
  }
  append_publish_steps(flow, kind, index, outputs);

  // The flow span (and everything the steps submit) nests under the
  // run span.
  obs::CurrentSpanGuard run_guard(t.span);
  flows_.run(std::move(flow), token_,
             [this, kind, index, run_id](const fabric::FlowRunRecord& rec) {
               finish(kind, index, run_id, rec);
             });
}

void AeroServer::append_ingestion_steps(fabric::FlowDefinition& flow,
                                        std::size_t index,
                                        const Outputs& outputs) {
  auto payload = ingestions_[index].current_payload;
  // Upload the raw payload. It lands in compute-local staging (the
  // "temporarily sent to a Globus Compute endpoint" hop) and is
  // transferred to the durable user collection.
  flow.steps.push_back(fabric::FlowStep{
      "upload-raw", [this, index, payload](fabric::StepDone done) {
        const IngestionFlowSpec& s = ingestions_[index].spec;
        const std::string raw_path = s.base_path + "/raw";
        s.staging->put(s.staging_collection, raw_path, *payload, token_);
        transfers_.transfer(
            *s.staging, s.staging_collection, raw_path, *s.storage,
            s.collection, raw_path, token_,
            [this, index, raw_path, done](const fabric::TransferRecord& rec) {
              if (rec.status != fabric::TransferStatus::kSucceeded) {
                done(false, "raw upload failed: " + rec.error);
                return;
              }
              const Ingestion& ing = ingestions_[index];
              db_.add_version(ing.trigger.products.front(), rec.checksum,
                              rec.bytes, loop_.now(), ing.spec.storage->name(),
                              ing.spec.collection, raw_path);
              done(true, "");
            });
      }});

  // Run the user's validation/transformation function on the compute
  // endpoint, with the staged data as input.
  flow.steps.push_back(fabric::FlowStep{
      "transform", [this, index, payload, outputs](fabric::StepDone done) {
        const IngestionFlowSpec& s = ingestions_[index].spec;
        ValueObject args;
        args["input"] = Value(*payload);
        args["url"] = Value(s.source->url());
        args["args"] = s.function_args;
        s.compute->execute(
            s.function_id, Value(std::move(args)), token_,
            [outputs, done](const Value& result,
                            const fabric::ComputeTaskRecord& rec) {
              if (rec.status != fabric::ComputeTaskStatus::kSucceeded) {
                done(false, "transformation failed: " + rec.error);
                return;
              }
              if (!result.contains("output")) {
                done(false, "transformation returned no 'output'");
                return;
              }
              if (!result.at("output").is_string()) {
                done(false, "transformation output is not a string");
                return;
              }
              outputs->front().bytes = result.at("output").as_string();
              done(true, "");
            });
      }});
}

void AeroServer::append_analysis_steps(fabric::FlowDefinition& flow,
                                       std::size_t index,
                                       const Outputs& outputs) {
  auto staged = std::make_shared<std::map<std::string, std::string>>();

  // Stage every input from the durable collection to the compute
  // endpoint's temporary space.
  flow.steps.push_back(fabric::FlowStep{
      "stage-in", [this, index, staged](fabric::StepDone done) {
        const AnalysisFlowSpec& s = analyses_[index].spec;
        auto remaining =
            std::make_shared<std::size_t>(s.input_uuids.size());
        auto failed = std::make_shared<bool>(false);
        // A throwing submission (expired token, ACL race) fails the step
        // through the flow's catch; the transfers already submitted must
        // not fail it a second time.
        try {
          for (const std::string& uuid : s.input_uuids) {
            std::optional<DataVersion> ver = db_.latest_version(uuid);
            if (!ver.has_value()) {
              *failed = true;
              done(false, "input has no version: " + uuid);
              return;
            }
            std::string staging_path = "stage/" + uuid;
            transfers_.transfer(
                *s.storage, ver->collection, ver->path, *s.staging,
                s.staging_collection, staging_path, token_,
                [this, index, uuid, staged, staging_path, remaining, failed,
                 done](const fabric::TransferRecord& rec) {
                  if (*failed) return;
                  if (rec.status != fabric::TransferStatus::kSucceeded) {
                    *failed = true;
                    done(false, "stage-in failed: " + rec.error);
                    return;
                  }
                  const AnalysisFlowSpec& s2 = analyses_[index].spec;
                  // The read can fail too (expired token, ACL race); that
                  // must fail the step, not escape into the event loop.
                  try {
                    const fabric::StoredObject& obj = s2.staging->get(
                        s2.staging_collection, staging_path, token_);
                    (*staged)[uuid] = obj.bytes;
                  } catch (const osprey::util::Error& e) {
                    *failed = true;
                    done(false, std::string("stage-in read failed: ") +
                                    e.what());
                    return;
                  }
                  if (--(*remaining) == 0) done(true, "");
                });
          }
        } catch (...) {
          *failed = true;
          throw;
        }
      }});

  // Run the user analysis function with the staged inputs.
  flow.steps.push_back(fabric::FlowStep{
      "execute", [this, index, staged, outputs](fabric::StepDone done) {
        const AnalysisFlowSpec& s = analyses_[index].spec;
        ValueObject input_obj;
        for (const auto& [uuid, bytes] : *staged) {
          input_obj[uuid] = Value(bytes);
        }
        ValueObject args;
        args["inputs"] = Value(std::move(input_obj));
        args["args"] = s.function_args;
        s.compute->execute(
            s.function_id, Value(std::move(args)), token_,
            [outputs, done](const Value& result,
                            const fabric::ComputeTaskRecord& rec) {
              if (rec.status != fabric::ComputeTaskStatus::kSucceeded) {
                done(false, "analysis failed: " + rec.error);
                return;
              }
              if (!result.contains("outputs")) {
                done(false, "analysis returned no 'outputs'");
                return;
              }
              for (Output& out : *outputs) {
                if (!result.at("outputs").contains(out.name)) {
                  done(false, "analysis missing output: " + out.name);
                  return;
                }
                const Value& bytes = result.at("outputs").at(out.name);
                if (!bytes.is_string()) {
                  done(false,
                       "analysis output '" + out.name + "' is not a string");
                  return;
                }
                out.bytes = bytes.as_string();
              }
              done(true, "");
            });
      }});
}

void AeroServer::append_publish_steps(fabric::FlowDefinition& flow,
                                      FlowKind kind, std::size_t index,
                                      const Outputs& outputs) {
  // Upload every output to the durable collection.
  flow.steps.push_back(fabric::FlowStep{
      "stage-out", [this, kind, index, outputs](fabric::StepDone done) {
        const FlowSpec& s = spec_of(kind, index);
        // The first failed transfer or throwing put fails the step; `done`
        // ignores later calls, and `remaining` then never reaches zero.
        auto remaining = std::make_shared<std::size_t>(outputs->size());
        for (Output& out : *outputs) {
          std::string path = s.base_path + "/" + out.name;
          out.checksum =
              s.staging->put(s.staging_collection, path, out.bytes, token_);
          transfers_.transfer(
              *s.staging, s.staging_collection, path, *s.storage,
              s.collection, path, token_,
              [remaining, done](const fabric::TransferRecord& rec) {
                if (rec.status != fabric::TransferStatus::kSucceeded) {
                  done(false, "stage-out failed: " + rec.error);
                  return;
                }
                if (--(*remaining) == 0) done(true, "");
              });
        }
      }});

  // Register versioning metadata for every output, with the checksum
  // staging computed on put; this is what triggers dependent analyses.
  flow.steps.push_back(fabric::FlowStep{
      "register-metadata",
      [this, kind, index, outputs](fabric::StepDone done) {
        const FlowSpec& s = spec_of(kind, index);
        for (const Output& out : *outputs) {
          db_.add_version(out.uuid, out.checksum, out.bytes.size(),
                          loop_.now(), s.storage->name(), s.collection,
                          s.base_path + "/" + out.name);
        }
        done(true, "");
      }});
}

bool AeroServer::analysis_ready(const Analysis& analysis) const {
  if (analysis.spec.policy == TriggerPolicy::kAny) {
    for (const std::string& uuid : analysis.spec.input_uuids) {
      if (db_.latest_version_number(uuid) >
          analysis.consumed_version.at(uuid)) {
        return true;
      }
    }
    return false;
  }
  // ALL: every input must have a version newer than the last consumed.
  for (const std::string& uuid : analysis.spec.input_uuids) {
    if (db_.latest_version_number(uuid) <=
        analysis.consumed_version.at(uuid)) {
      return false;
    }
  }
  return true;
}

void AeroServer::on_version_added(const std::string& uuid,
                                  const std::string& cause) {
  for (std::size_t i = 0; i < analyses_.size(); ++i) {
    Analysis& analysis = analyses_[i];
    bool is_input = false;
    for (const std::string& input : analysis.spec.input_uuids) {
      if (input == uuid) {
        is_input = true;
        break;
      }
    }
    if (!is_input) continue;
    if (!analysis_ready(analysis)) continue;
    analysis_triggers_->inc();
    if (!admit(FlowKind::kAnalysis, i)) {
      analysis.pending_cause = cause;
      continue;
    }
    run_flow(FlowKind::kAnalysis, i, cause);
  }
}

AeroServer::FlowTrigger& AeroServer::trigger_of(FlowKind kind,
                                                std::size_t index) {
  return kind == FlowKind::kIngestion ? ingestions_[index].trigger
                                      : analyses_[index].trigger;
}

const FlowSpec& AeroServer::spec_of(FlowKind kind, std::size_t index) const {
  if (kind == FlowKind::kIngestion) return ingestions_[index].spec;
  return analyses_[index].spec;
}

bool AeroServer::still_ready(FlowKind kind, std::size_t index) const {
  return kind == FlowKind::kIngestion || analysis_ready(analyses_[index]);
}

bool AeroServer::admit(FlowKind kind, std::size_t index) {
  FlowTrigger& t = trigger_of(kind, index);
  if (!t.running && t.breaker.allow(loop_.now())) {
    t.attempts = 0;  // fresh trigger
    ++t.trigger_gen;
    return true;
  }
  // An ingestion payload that is replaced before it ran never publishes.
  // Analysis triggers coalesce by design: the newest cause replaces the
  // pending one, and the run consumes the latest input versions anyway.
  if (t.pending && kind == FlowKind::kIngestion) {
    supersede(t, t.name,
              t.running ? "queued payload replaced by fresher upstream data"
                        : "deferred payload replaced by fresher upstream data");
  }
  t.pending = true;
  if (t.running) return false;
  // Circuit open: park the trigger and probe when the breaker is
  // willing to admit traffic again.
  deferred_triggers_->inc();
  SimTime probe = probe_time(t.breaker, loop_.now());
  record_incident(fabric::IncidentCategory::kDegraded, "trigger-deferred",
                  t.name,
                  "circuit open; probe at " +
                      osprey::util::format_sim_time(probe));
  schedule_probe(kind, index, probe);
  return false;
}

void AeroServer::finish(FlowKind kind, std::size_t index,
                        std::uint64_t run_id,
                        const fabric::FlowRunRecord& rec) {
  FlowTrigger& t = trigger_of(kind, index);
  const std::string name = t.name;
  const bool ingestion = kind == FlowKind::kIngestion;
  bool ok = rec.status == fabric::FlowRunStatus::kSucceeded;
  // Incidents recorded below correlate with this run's span.
  obs::CurrentSpanGuard run_guard(t.span);
  if (tracer_ != nullptr) {
    std::string err;
    for (const fabric::StepRecord& sr : rec.steps) {
      if (!sr.ok && !sr.error.empty()) err = sr.error;
    }
    tracer_->end_span(t.span, obs::sim_ns(loop_.now()), ok, err);
    t.span = obs::kNoSpan;
  }
  std::vector<VersionRef> outputs;
  if (ok) {
    for (const std::string& uuid : t.products) {
      outputs.push_back(VersionRef{uuid, db_.latest_version_number(uuid)});
    }
  } else {
    failed_runs_->inc();
  }
  db_.finish_run(run_id, ok ? RunStatus::kSucceeded : RunStatus::kFailed,
                 outputs, loop_.now());
  t.running = false;
  note_run_outcome(t.breaker, name, ok);
  if (ok) {
    clear_degraded(t.products, name);
    // Announce each output version; may trigger downstream flows, so
    // iterate a copy rather than the flow table's entry.
    const std::vector<std::string> announced = t.announced;
    for (const std::string& uuid : announced) {
      on_version_added(uuid, "update of " + name);
    }
  } else if (t.attempts < t.retry.max_attempts && !t.pending) {
    // Retry the same trigger after a (jittered) backoff.
    ++t.attempts;
    retries_->inc();
    int attempt = t.attempts;
    std::uint64_t gen = t.trigger_gen;
    SimTime delay = t.retry.jittered(attempt, t.retry_key);
    record_incident(fabric::IncidentCategory::kRecovery, "retry-scheduled",
                    name,
                    "attempt " + std::to_string(attempt) + " in " +
                        osprey::util::format_duration(delay));
    loop_.schedule_after(delay, [this, kind, index, attempt, gen] {
      fire_retry(kind, index, attempt, gen);
    });
    return;
  } else if (!t.pending) {
    t.permanent->inc();
    mark_degraded(t.announced, name,
                  std::string(ingestion ? "ingestion '" : "analysis '") +
                      name + "' exhausted its retry budget");
  } else if (ingestion) {
    // The failed payload is obsolete: fresher upstream data is queued
    // and takes over below. (A failed analysis hands over to its
    // pending trigger, which consumes the same or newer inputs.)
    supersede(t, name, "failed payload replaced by fresher upstream data");
  }
  // Re-run for any trigger that arrived meanwhile.
  FlowTrigger& t2 = trigger_of(kind, index);
  bool rerun = t2.pending && still_ready(kind, index);
  t2.pending = false;
  if (rerun && admit(kind, index)) relaunch(kind, index, Relaunch::kQueued);
}

void AeroServer::fire_retry(FlowKind kind, std::size_t index, int attempt,
                            std::uint64_t gen) {
  if (kind == FlowKind::kIngestion && ingestions_[index].cancelled) return;
  FlowTrigger& t = trigger_of(kind, index);
  if (gen != t.trigger_gen || t.running) {
    // A fresh trigger took over while this retry waited.
    supersede(t, t.name,
              "retry " + std::to_string(attempt) +
                  " obsolete: newer trigger in flight");
    return;
  }
  if (!t.breaker.allow(loop_.now())) {
    // Breaker still open: push the retry past its reopen time without
    // consuming another attempt.
    loop_.schedule_at(std::max(probe_time(t.breaker, loop_.now()),
                               loop_.now() + 1),
                      [this, kind, index, attempt, gen] {
                        fire_retry(kind, index, attempt, gen);
                      });
    return;
  }
  relaunch(kind, index, Relaunch::kRetry, attempt);
}

void AeroServer::schedule_probe(FlowKind kind, std::size_t index,
                                SimTime at) {
  loop_.schedule_at(std::max(at, loop_.now() + 1), [this, kind, index] {
    if (kind == FlowKind::kIngestion && ingestions_[index].cancelled) return;
    FlowTrigger& t = trigger_of(kind, index);
    if (t.running || !t.pending) return;
    osprey::util::BreakerState before = t.breaker.state();
    if (!t.breaker.allow(loop_.now())) {
      schedule_probe(kind, index, probe_time(t.breaker, loop_.now()));
      return;
    }
    if (before == osprey::util::BreakerState::kOpen) {
      record_incident(fabric::IncidentCategory::kRecovery,
                      "circuit-half-open", t.name,
                      "admitting probe run");
    }
    t.pending = false;
    if (!still_ready(kind, index)) return;
    t.attempts = 0;
    ++t.trigger_gen;
    relaunch(kind, index, Relaunch::kProbe);
  });
}

void AeroServer::relaunch(FlowKind kind, std::size_t index, Relaunch how,
                          int attempt) {
  const bool ingestion = kind == FlowKind::kIngestion;
  const bool queued = how == Relaunch::kQueued;
  std::string trigger;
  if (how == Relaunch::kRetry) {
    // The same payload (ingestion) or policy (analysis) runs again.
    trigger = "retry " + std::to_string(attempt) + ":" +
              (ingestion ? ingestions_[index].spec.source->url()
                         : analyses_[index].spec.name);
  } else if (ingestion) {
    Ingestion& ing = ingestions_[index];
    ing.current_payload = std::move(ing.pending_payload);
    trigger = (queued ? "poll(pending):" : "probe:") + ing.spec.source->url();
  } else {
    trigger = std::move(analyses_[index].pending_cause) +
              (queued ? " (queued)" : " (probe)");
  }
  run_flow(kind, index, trigger);
}

void AeroServer::supersede(FlowTrigger& trigger, const std::string& site,
                           const std::string& detail) {
  trigger.superseded->inc();
  record_incident(fabric::IncidentCategory::kRecovery, "trigger-superseded",
                  site, detail);
}

AeroServer::ServedEstimate AeroServer::serve_latest(const std::string& uuid) {
  ServedEstimate est;
  est.version = db_.latest_version(uuid);
  auto it = degraded_.find(uuid);
  if (it != degraded_.end()) {
    est.stale = true;
    // Contract: reason is empty iff fresh. A degraded entry recorded
    // without a reason must still say *something*.
    est.reason = it->second.empty() ? "degraded" : it->second;
  } else if (!est.version.has_value()) {
    est.stale = true;
    est.reason = "never-published";
  }
  if (est.stale) {
    stale_serves_->inc();
    record_incident(fabric::IncidentCategory::kDegraded, "stale-serve", uuid,
                    est.reason);
  }
  return est;
}

void AeroServer::record_incident(fabric::IncidentCategory category,
                                 const std::string& kind,
                                 const std::string& site,
                                 const std::string& detail) {
  if (tracer_ != nullptr) {
    // The instant's parent is the in-flight run span (when recorded from
    // a run completion callback), correlating IncidentLog entries with
    // trace spans. IncidentLog itself is untouched: chaos replay tests
    // compare its rendered bytes.
    tracer_->instant(obs::Category::kAero, "incident:" + kind,
                     obs::sim_ns(loop_.now()), obs::kInheritParent,
                     site + ": " + detail);
  }
  fabric::FaultPlan* plan = loop_.fault_plan();
  if (plan == nullptr) return;
  plan->log().record(loop_.now(), category, kind, "aero", site, detail);
}

void AeroServer::note_run_outcome(osprey::util::CircuitBreaker& breaker,
                                  const std::string& site, bool ok) {
  if (!breaker.config().enabled()) return;
  osprey::util::BreakerState before = breaker.state();
  if (ok) {
    breaker.on_success(loop_.now());
  } else {
    breaker.on_failure(loop_.now());
  }
  osprey::util::BreakerState after = breaker.state();
  if (after == before) return;
  if (after == osprey::util::BreakerState::kOpen) {
    record_incident(fabric::IncidentCategory::kDegraded, "circuit-opened",
                    site,
                    "after " + std::to_string(breaker.consecutive_failures()) +
                        " consecutive failure(s)");
  } else if (after == osprey::util::BreakerState::kClosed) {
    record_incident(fabric::IncidentCategory::kRecovery, "circuit-closed",
                    site, "probe(s) succeeded");
  }
}

void AeroServer::mark_degraded(const std::vector<std::string>& uuids,
                               const std::string& site,
                               const std::string& reason) {
  for (const std::string& uuid : uuids) degraded_[uuid] = reason;
  record_incident(fabric::IncidentCategory::kDegraded, "degraded", site,
                  reason + "; serving last-good estimates");
  // Degradation flips the staleness of the served answer, so caches
  // must revalidate even though no new version appeared.
  for (const std::string& uuid : uuids) notify_updated(uuid);
}

void AeroServer::clear_degraded(const std::vector<std::string>& uuids,
                                const std::string& site) {
  bool any = false;
  for (const std::string& uuid : uuids) {
    if (degraded_.erase(uuid) > 0) {
      any = true;
      notify_updated(uuid);
    }
  }
  if (any) {
    record_incident(fabric::IncidentCategory::kRecovery, "recovered", site,
                    "fresh estimate published");
  }
}

std::uint64_t AeroServer::add_update_listener(UpdateListener listener) {
  std::uint64_t id = next_listener_id_++;
  update_listeners_[id] = std::move(listener);
  return id;
}

void AeroServer::remove_update_listener(std::uint64_t id) {
  update_listeners_.erase(id);
}

void AeroServer::notify_updated(const std::string& uuid) {
  for (const auto& [id, listener] : update_listeners_) {
    if (listener) listener(uuid);
  }
}

}  // namespace osprey::aero
