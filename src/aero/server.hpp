#pragma once

/// \file server.hpp
/// The AERO server: event-based research orchestration over the
/// simulated fabric. Reproduces the paper's §2.2 mechanics:
///
///  - Ingestion flows poll an upstream URL on a timer ("daily"); a
///    checksum change means new data. The raw payload is staged at the
///    compute endpoint, a user transformation function runs there, and
///    both raw and transformed payloads are uploaded to a user-specified
///    storage collection. Versioning metadata (checksum, timestamp,
///    version number) is recorded for input and output.
///  - Registration returns UUIDs identifying the output data; analysis
///    flows take those UUIDs as inputs and are triggered when inputs
///    update, under an ANY or ALL policy.
///  - AERO wraps every user function with stage-in → execute →
///    stage-out → metadata-update steps (run as a fabric FlowDefinition).
///    Both kinds share FlowSpec, registration, the run launcher and the
///    publish steps; only the steps that produce the output differ
///    (ingestion: upload-raw, transform; analysis: stage-in, execute).
///    Steps hand values on by capture (the run's shared payload and
///    output slots); the fabric keeps no run state for them.
///  - The server only ever handles metadata; payloads move between
///    storage endpoints via the transfer service.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aero/metadata_db.hpp"
#include "aero/source.hpp"
#include "aero/wal.hpp"
#include "fabric/compute.hpp"
#include "fabric/fault.hpp"
#include "fabric/flows.hpp"
#include "fabric/storage.hpp"
#include "fabric/timer.hpp"
#include "fabric/transfer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/retry.hpp"
#include "util/value.hpp"

namespace osprey::aero {

enum class TriggerPolicy { kAny, kAll };

/// What every AERO flow is registered with: the user function and its
/// compute endpoint, where outputs land, and how failed runs recover.
struct FlowSpec {
  std::string name;

  fabric::ComputeEndpoint* compute = nullptr;
  std::string function_id;                 // the user function
  osprey::util::Value function_args;       // extra args to that fn

  fabric::StorageEndpoint* staging = nullptr;  // compute-local temp space
  std::string staging_collection;
  fabric::StorageEndpoint* storage = nullptr;  // durable collection (Eagle)
  std::string collection;
  std::string base_path;  // output <name> -> <base_path>/<name>

  /// Automatic re-runs after a failed flow (transfer/compute faults).
  /// Disabled by default (max_attempts = 0).
  osprey::util::RetryPolicy retry;
  /// Optional circuit breaker: after `failure_threshold` consecutive
  /// failed runs the flow stops being triggered until a half-open probe
  /// succeeds. Disabled by default.
  osprey::util::CircuitBreakerConfig breaker;
};

/// Registration request for an ingestion flow (paper: polling frequency,
/// URL, function + args, compute endpoint, storage collection). Outputs:
/// `raw` (the payload) and `transformed` (the function's result).
struct IngestionFlowSpec : FlowSpec {
  std::shared_ptr<DataSource> source;
  SimTime poll_period = osprey::util::kDay;
  SimTime first_poll = 0;
};

/// UUIDs returned by ingestion registration.
struct IngestionHandles {
  std::string raw_uuid;
  std::string output_uuid;
  fabric::TimerId timer = 0;
};

/// Registration request for an analysis flow: input data UUIDs instead
/// of a URL, plus the trigger policy.
struct AnalysisFlowSpec : FlowSpec {
  std::vector<std::string> input_uuids;
  TriggerPolicy policy = TriggerPolicy::kAll;
  /// Names of the outputs the analysis function produces (keys of the
  /// "outputs" object in its result). One data object per name.
  std::vector<std::string> output_names;
};

/// The orchestration server.
class AeroServer {
 public:
  /// The server authenticates to the fabric as `identity` (a full-scope
  /// token is issued at construction). Collections the flows touch must
  /// be readable/writable by this identity. The Figure-1 counters live
  /// in `metrics` (non-owning); nullptr means the loop's registry, which
  /// the fabric services already report into. `uuid_seed`
  /// seeds the metadata db's uuid generator — sharded deployments give
  /// every partition's server a distinct, stable seed so object uuids
  /// never collide across partitions (and recovery, which replays uuid
  /// draws in lockstep, sees the same stream after a restart).
  AeroServer(fabric::EventLoop& loop, fabric::AuthService& auth,
             fabric::TimerService& timers, fabric::TransferService& transfers,
             fabric::FlowsService& flows, std::string identity = "aero",
             obs::MetricsRegistry* metrics = nullptr,
             std::uint64_t uuid_seed = 0xAE70);

  AeroServer(const AeroServer&) = delete;
  AeroServer& operator=(const AeroServer&) = delete;

  /// Durable metadata (DESIGN.md §4f): recover db() from the WAL +
  /// checkpoints under `fs`, adjudicate runs the crash interrupted
  /// (kRunning → kFailed plus a "run-interrupted" recovery incident),
  /// re-announce every recovered object to update listeners so rebuilt
  /// serving-tier caches can never treat a pre-crash answer as fresh,
  /// and write-ahead-log every subsequent mutation. Must be called
  /// before any flow registration; registration is idempotent across
  /// restarts (existing data objects are reused by name+producer). `fs`
  /// must outlive the server.
  RecoveryStats enable_durability(osprey::util::DurableFs& fs,
                                  WalOptions options = {});
  /// The owned WAL (nullptr until enable_durability).
  Wal* wal() { return wal_.get(); }

  /// Register an ingestion flow; arms its polling timer and returns the
  /// UUIDs of the raw and transformed data objects.
  IngestionHandles register_ingestion(IngestionFlowSpec spec);

  /// Register an analysis flow; returns one output UUID per output name.
  std::vector<std::string> register_analysis(AnalysisFlowSpec spec);

  /// Pause an ingestion flow's polling (by flow name). Paused flows keep
  /// their registration and data; resume re-arms the timer at the next
  /// period boundary. Returns false for unknown names.
  bool pause_ingestion(const std::string& name);
  bool resume_ingestion(const std::string& name);
  bool ingestion_paused(const std::string& name) const;

  /// Permanently cancel an ingestion flow's polling. Its data objects
  /// and provenance remain in the metadata DB.
  bool cancel_ingestion(const std::string& name);

  /// Attach a trace recorder (non-owning; nullptr detaches). Every
  /// ingestion/analysis run becomes an "ingest:"/"analyze:" span (the
  /// wrapped flow and its steps nest underneath), update detections and
  /// incidents become instant events correlated by parent span id.
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  /// The registry holding the server's counters: the one passed at
  /// construction, else the loop's.
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// Graceful degradation: the last good version of a data object,
  /// flagged stale when its producing flow is currently failing (or it
  /// has never published). Stakeholders always get an answer plus an
  /// honest staleness signal — never an error.
  struct ServedEstimate {
    std::optional<DataVersion> version;  // last good, if any
    bool stale = false;
    std::string reason;  // why the estimate is stale (empty iff fresh)
  };
  ServedEstimate serve_latest(const std::string& uuid);

  /// Is this data object currently degraded (producer failing)?
  bool degraded(const std::string& uuid) const {
    return degraded_.count(uuid) > 0;
  }

  /// Serving-tier invalidation hook: fires whenever an object's served
  /// answer may have changed — a new DataVersion was registered (any
  /// path into the metadata db) or its degradation state flipped.
  /// serve::ResultCache registers here to invalidate entries. Returns a
  /// key for remove_update_listener; listeners must outlive the server
  /// or unregister first.
  using UpdateListener = std::function<void(const std::string& uuid)>;
  std::uint64_t add_update_listener(UpdateListener listener);
  void remove_update_listener(std::uint64_t id);

  MetadataDb& db() { return db_; }
  const MetadataDb& db() const { return db_; }

  const std::string& identity() const { return identity_; }
  const std::string& token() const { return token_; }

  // --- counters for the Figure-1 trace tables (backed by the
  // MetricsRegistry under aero_* metric names) ---
  std::uint64_t polls() const { return polls_->value(); }
  std::uint64_t updates_detected() const { return updates_detected_->value(); }
  std::uint64_t ingestion_runs() const { return ingestion_runs_->value(); }
  std::uint64_t analysis_triggers() const {
    return analysis_triggers_->value();
  }
  std::uint64_t analysis_runs() const { return analysis_runs_->value(); }
  std::uint64_t failed_runs() const { return failed_runs_->value(); }
  std::uint64_t retries() const { return retries_->value(); }
  std::uint64_t fetch_errors() const { return fetch_errors_->value(); }
  /// Triggers whose retry budget was exhausted (flow gave up).
  std::uint64_t permanent_failures() const {
    return ingestion_permanent_->value() + analysis_permanent_->value();
  }
  std::uint64_t ingestion_permanent_failures() const {
    return ingestion_permanent_->value();
  }
  /// Ingestion triggers whose payload was replaced by fresher upstream
  /// data before it could publish.
  std::uint64_t superseded_triggers() const {
    return superseded_triggers_->value();
  }
  /// Scheduled analysis retries made obsolete by a newer trigger.
  std::uint64_t analysis_superseded_triggers() const {
    return analysis_superseded_->value();
  }
  /// Triggers deferred because a circuit breaker was open.
  std::uint64_t deferred_triggers() const {
    return deferred_triggers_->value();
  }
  std::uint64_t stale_serves() const { return stale_serves_->value(); }

 private:
  /// The trigger state machine every flow runs, whatever its kind
  /// (DESIGN.md §4c): a trigger starts a run when the flow is idle and
  /// its breaker admits it; otherwise it waits as `pending` behind the
  /// in-flight run or a half-open probe. A failed run retries under
  /// `retry`; a retry whose trigger generation was overtaken counts as
  /// superseded, and an exhausted budget as a permanent failure.
  struct FlowTrigger {
    bool running = false;
    bool pending = false;  // a trigger is waiting (run in flight / breaker)
    int attempts = 0;      // retries of the current trigger
    /// Bumped on every fresh trigger so a stale retry timer (scheduled
    /// for a previous trigger) can recognize it was superseded.
    std::uint64_t trigger_gen = 0;
    osprey::util::RetryPolicy retry;
    osprey::util::CircuitBreaker breaker;
    std::uint64_t retry_key = 0;  // jitter key (hash of the flow name)
    /// Span of the in-flight "ingest:"/"analyze:" run (kNoSpan when idle).
    obs::SpanId span = obs::kNoSpan;
    obs::Counter* permanent = nullptr;   // the kind's exhausted budgets
    obs::Counter* superseded = nullptr;  // the kind's superseded triggers
    std::string name;  // the flow's name (its incident site)
    /// Objects a successful run versions, and those announced to
    /// analyses: the outputs the publish steps store (not ingestion's
    /// raw archive copy).
    std::vector<std::string> products;
    std::vector<std::string> announced;
  };

  struct Ingestion {
    IngestionFlowSpec spec;
    FlowTrigger trigger;  // products {raw, transformed}
    std::string last_checksum;  // of the upstream payload last ingested
    /// The buffer the last poll hashed. The same buffer, or identical
    /// bytes, hash to an identical checksum, so the poll path checks
    /// these first and skips the SHA-256 entirely on the
    /// (overwhelmingly common) unchanged poll — the scale bottleneck at
    /// sub-daily cadences.
    std::shared_ptr<const std::string> last_payload;
    /// The payload a queued or deferred trigger will run with.
    std::shared_ptr<const std::string> pending_payload;
    /// The latest run's payload (its steps share it; retries reuse it).
    std::shared_ptr<const std::string> current_payload;
    fabric::TimerId timer = 0;
    bool paused = false;
    bool cancelled = false;
  };

  struct Analysis {
    AnalysisFlowSpec spec;
    FlowTrigger trigger;  // products: one per output name, in order
    /// For the ALL policy: the version of each input consumed last run.
    std::map<std::string, int> consumed_version;
    /// Cause of the pending trigger; a newer cause overwrites it (the
    /// run consumes the latest input versions either way).
    std::string pending_cause;
  };

  /// How a run that did not come straight from a fresh trigger starts.
  enum class Relaunch { kQueued, kProbe, kRetry };

  /// One output of a run: the user function fills `bytes`; stage-out
  /// stores them at `<base_path>/<name>` and keeps the put's checksum.
  struct Output {
    std::string name;
    std::string uuid;
    std::string bytes;
    std::string checksum;
  };
  using Outputs = std::shared_ptr<std::vector<Output>>;

  /// Existing object with this exact name+producer (recovered across a
  /// restart), or a freshly registered one.
  std::string intern_object(const std::string& name,
                            const std::string& producer);
  /// Validate the fields every flow shares, intern one data object per
  /// output (`<flow>/<output>`) and build the flow's trigger.
  FlowTrigger new_trigger(const FlowSpec& spec, FlowKind kind,
                          const std::vector<std::string>& outputs);
  void poll_ingestion(std::size_t index);
  Ingestion* find_ingestion(const std::string& name);
  const Ingestion* find_ingestion(const std::string& name) const;
  /// Start a run: span, provenance record, the kind's steps, then the
  /// publish steps; completion goes to finish().
  void run_flow(FlowKind kind, std::size_t index, const std::string& trigger);
  /// Ingestion's front steps: upload-raw, transform.
  void append_ingestion_steps(fabric::FlowDefinition& flow, std::size_t index,
                              const Outputs& outputs);
  /// Analysis's front steps: stage-in, execute.
  void append_analysis_steps(fabric::FlowDefinition& flow, std::size_t index,
                             const Outputs& outputs);
  /// The publish steps every flow ends with: stage-out, register-metadata.
  void append_publish_steps(fabric::FlowDefinition& flow, FlowKind kind,
                            std::size_t index, const Outputs& outputs);

  // The shared trigger state machine. A flow is (kind, index) into
  // ingestions_ / analyses_; the kind only decides how a run starts and
  // whether a pending trigger is still ready.
  FlowTrigger& trigger_of(FlowKind kind, std::size_t index);
  const FlowSpec& spec_of(FlowKind kind, std::size_t index) const;
  /// Is a pending trigger still worth a run? Ingestion payloads always
  /// are; an analysis re-evaluates its trigger policy.
  bool still_ready(FlowKind kind, std::size_t index) const;
  /// A fresh trigger: true when the caller may start the run now;
  /// otherwise it is parked as pending (behind the in-flight run, or
  /// deferred behind a breaker probe).
  bool admit(FlowKind kind, std::size_t index);
  /// Run-completion bookkeeping: span, provenance, breaker, then
  /// publish / retry / supersede / permanent failure, then the pending
  /// trigger.
  void finish(FlowKind kind, std::size_t index, std::uint64_t run_id,
              const fabric::FlowRunRecord& rec);
  /// Fire a scheduled retry (re-checking breaker and supersession).
  void fire_retry(FlowKind kind, std::size_t index, int attempt,
                  std::uint64_t gen);
  /// Start the pending trigger once the breaker admits a half-open probe.
  void schedule_probe(FlowKind kind, std::size_t index, SimTime at);
  void relaunch(FlowKind kind, std::size_t index, Relaunch how,
                int attempt = 0);
  void supersede(FlowTrigger& trigger, const std::string& site,
                 const std::string& detail);
  /// Record a recovery/degradation incident into the log of the loop's
  /// fault plan (no-op while no plan is attached).
  void record_incident(fabric::IncidentCategory category,
                       const std::string& kind, const std::string& site,
                       const std::string& detail);
  /// Breaker bookkeeping with circuit-transition incidents.
  void note_run_outcome(osprey::util::CircuitBreaker& breaker,
                        const std::string& site, bool ok);
  void mark_degraded(const std::vector<std::string>& uuids,
                     const std::string& site, const std::string& reason);
  void clear_degraded(const std::vector<std::string>& uuids,
                      const std::string& site);
  /// Invoke every registered update listener for `uuid`.
  void notify_updated(const std::string& uuid);
  /// Called after any data object gains a version; evaluates triggers.
  void on_version_added(const std::string& uuid, const std::string& cause);
  /// Policy evaluation for one analysis flow.
  bool analysis_ready(const Analysis& analysis) const;

  fabric::EventLoop& loop_;
  fabric::AuthService& auth_;
  fabric::TimerService& timers_;
  fabric::TransferService& transfers_;
  fabric::FlowsService& flows_;
  std::string identity_;
  std::string token_;
  MetadataDb db_;
  /// Declared after db_ so it is destroyed first (its destructor
  /// detaches the WAL hook from a still-live db).
  std::unique_ptr<Wal> wal_;

  std::vector<Ingestion> ingestions_;
  std::vector<Analysis> analyses_;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceRecorder* tracer_ = nullptr;

  // Figure-1 counters, bound once in the constructor. Non-owning; the
  // registry outlives them by construction.
  obs::Counter* polls_ = nullptr;
  obs::Counter* updates_detected_ = nullptr;
  obs::Counter* ingestion_runs_ = nullptr;
  obs::Counter* analysis_triggers_ = nullptr;
  obs::Counter* analysis_runs_ = nullptr;
  obs::Counter* failed_runs_ = nullptr;
  obs::Counter* retries_ = nullptr;
  obs::Counter* fetch_errors_ = nullptr;
  obs::Counter* ingestion_permanent_ = nullptr;
  obs::Counter* analysis_permanent_ = nullptr;
  obs::Counter* superseded_triggers_ = nullptr;
  obs::Counter* analysis_superseded_ = nullptr;
  obs::Counter* deferred_triggers_ = nullptr;
  obs::Counter* stale_serves_ = nullptr;

  /// uuid -> reason its producer is currently failing.
  std::map<std::string, std::string> degraded_;
  /// Serving-tier update listeners, keyed by registration id (ordered
  /// map: notification order is deterministic).
  std::map<std::uint64_t, UpdateListener> update_listeners_;
  std::uint64_t next_listener_id_ = 1;
};

}  // namespace osprey::aero
