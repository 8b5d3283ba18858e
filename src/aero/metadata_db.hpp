#pragma once

/// \file metadata_db.hpp
/// AERO's central metadata database. Stores data objects and their
/// versions (checksum, timestamp, version number — exactly the
/// versioning metadata the paper lists), flow registrations, and run
/// provenance. Payload bytes NEVER enter this class: "the data itself
/// never passes through the AERO server, only the metadata".

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "util/sim_time.hpp"
#include "util/uuid.hpp"
#include "util/value.hpp"

namespace osprey::aero {

using osprey::util::SimTime;

/// One immutable version of a data object.
struct DataVersion {
  int version = 0;             // 1-based, monotonically increasing
  std::string checksum;        // SHA-256 hex of the payload
  std::uint64_t size_bytes = 0;
  SimTime timestamp = 0;       // virtual time the version was registered
  std::string endpoint;        // storage endpoint holding the payload
  std::string collection;
  std::string path;
};

/// A data object: a UUID-identified series of versions.
struct DataObjectRecord {
  std::string uuid;
  std::string name;
  std::string producer_flow;  // flow that writes this object ("" = external)
  std::vector<DataVersion> versions;
};

enum class FlowKind { kIngestion, kAnalysis };

enum class RunStatus { kRunning, kSucceeded, kFailed };

/// Input/output binding of a run: which version of which object.
struct VersionRef {
  std::string uuid;
  int version = 0;
};

/// Provenance record of one flow execution.
struct RunRecord {
  std::uint64_t run_id = 0;
  std::string flow_name;
  FlowKind kind = FlowKind::kIngestion;
  std::string trigger;  // human-readable cause ("poll", "update of <uuid>")
  std::vector<VersionRef> inputs;
  std::vector<VersionRef> outputs;
  std::string compute_endpoint;
  RunStatus status = RunStatus::kRunning;
  SimTime started = 0;
  SimTime ended = -1;
};

/// One metadata mutation as typed data. The public mutators build these,
/// MetadataDb::apply() is the only code that turns them into state, and
/// the JSON operation record (the WAL's on-disk form) is built from one
/// only when a WAL hook is attached, and parsed back into one on replay.
struct RegisterObjectOp {
  std::string uuid;  // the uuid the generator draws next (checked on apply)
  std::string name;
  std::string producer_flow;
};
struct AddVersionOp {
  std::string uuid;
  DataVersion version;  // version number must be the next dense one
};
struct StartRunOp {
  RunRecord run;  // run_id must be the next dense id; not yet finished
};
struct FinishRunOp {
  std::uint64_t run_id = 0;
  RunStatus status = RunStatus::kSucceeded;
  std::vector<VersionRef> outputs;
  SimTime ended = 0;
};
using MetadataOp =
    std::variant<RegisterObjectOp, AddVersionOp, StartRunOp, FinishRunOp>;

/// The metadata store, with operation counters so the workflow benches
/// can report metadata-query/update traffic (the solid arrows of the
/// paper's Figure 1).
///
/// Durability discipline (DESIGN.md §4f): every mutation is expressed
/// as a typed MetadataOp. The public mutators build the op, hand its
/// serialized operation record to the write-ahead hook (aero::Wal
/// appends + syncs it) BEFORE any state changes, then route the op
/// through the single private apply() — the only code allowed to touch
/// objects_/runs_. Recovery decodes the same records back into ops and
/// applies them through the same apply(), so a recovered database is
/// byte-identical to one that never crashed.
class MetadataDb {
 public:
  explicit MetadataDb(std::uint64_t uuid_seed = 0xAE70);

  /// Create a data object; returns its UUID.
  std::string register_object(const std::string& name,
                              const std::string& producer_flow);

  bool has_object(const std::string& uuid) const;
  const DataObjectRecord& object(const std::string& uuid) const;

  /// Append a version (version number assigned here); returns it.
  const DataVersion& add_version(const std::string& uuid,
                                 const std::string& checksum,
                                 std::uint64_t size_bytes, SimTime timestamp,
                                 const std::string& endpoint,
                                 const std::string& collection,
                                 const std::string& path);

  /// Latest version, or nullopt when the object has none yet.
  std::optional<DataVersion> latest_version(const std::string& uuid) const;
  int latest_version_number(const std::string& uuid) const;

  /// All object UUIDs, sorted.
  std::vector<std::string> object_uuids() const;

  /// Discovery: objects whose name starts with `name_prefix` (all
  /// objects for ""), with their latest version numbers. Sorted by name
  /// then uuid.
  struct ObjectSummary {
    std::string uuid;
    std::string name;
    std::string producer_flow;
    int latest_version = 0;
  };
  std::vector<ObjectSummary> find_objects(
      const std::string& name_prefix) const;

  // --- run provenance ---
  std::uint64_t start_run(const std::string& flow_name, FlowKind kind,
                          const std::string& trigger,
                          std::vector<VersionRef> inputs,
                          const std::string& compute_endpoint,
                          SimTime started);
  void finish_run(std::uint64_t run_id, RunStatus status,
                  std::vector<VersionRef> outputs, SimTime ended);
  const RunRecord& run(std::uint64_t run_id) const;
  const std::vector<RunRecord>& runs() const { return runs_; }

  // --- traffic counters ---
  std::uint64_t query_count() const { return queries_; }
  std::uint64_t update_count() const { return updates_; }

  /// Hook fired at the end of every add_version() with the object's uuid
  /// and the new version number. This is how the serving tier learns
  /// about version bumps without polling: AeroServer forwards it to its
  /// update listeners. Single listener; pass an empty function to
  /// detach.
  using VersionListener =
      std::function<void(const std::string& uuid, int version)>;
  void set_version_listener(VersionListener listener) {
    version_listener_ = std::move(listener);
  }

  /// GraphViz DOT rendering of the provenance graph
  /// (objects ← runs ← objects).
  std::string provenance_dot() const;

  /// Transitive upstream lineage of a data object: every (object, run)
  /// that contributed to any version of `uuid`, walking runs' inputs
  /// backwards. The result contains `uuid` itself.
  struct Lineage {
    std::vector<std::string> object_uuids;   // topologically unordered
    std::vector<std::uint64_t> run_ids;
  };
  Lineage upstream_lineage(const std::string& uuid) const;

  /// Transitive downstream impact: every object derived (directly or
  /// not) from `uuid`. Answers "what must be recomputed if this input
  /// was bad?".
  Lineage downstream_lineage(const std::string& uuid) const;

  /// Durable snapshot of the whole database (objects, versions, run
  /// provenance, uuid-generator state) as a JSON-like Value — what a
  /// production AERO server persists across restarts ("reproducible
  /// science" requires the metadata to outlive the process). Written as
  /// snapshot_format 2, the only format load_snapshot accepts.
  osprey::util::Value to_json() const;
  /// Restore a database from a to_json() snapshot.
  static MetadataDb from_json(const osprey::util::Value& json);
  /// In-place restore: replaces objects/runs/uuid state while keeping
  /// the version listener and WAL hook attached (how aero::Wal loads a
  /// checkpoint into a live server's db during recovery).
  void load_snapshot(const osprey::util::Value& json);

  // --- write-ahead logging -------------------------------------------
  /// Hook invoked with every mutation's operation record BEFORE the
  /// mutation is applied; the hook owns the record it is handed.
  /// aero::Wal installs itself here; an empty function detaches
  /// (mutations then apply directly, undurably, and no record is built).
  using WalHook = std::function<void(osprey::util::Value record)>;
  void set_wal_hook(WalHook hook) { wal_hook_ = std::move(hook); }

  /// Replay one WAL operation record (recovery path). Applies the same
  /// state transition the original mutation did — including advancing
  /// the uuid generator for register_object records — without firing
  /// the WAL hook, listeners, or traffic counters. Throws on records
  /// inconsistent with the current state (non-dense run ids, version
  /// gaps, uuid-sequence divergence).
  void apply_replay(const osprey::util::Value& record);

  /// Current uuid-generator state (persisted in snapshots).
  std::uint64_t uuid_state() const { return uuids_.state(); }

 private:
  /// The single state-transition function: every mutation — live or
  /// replayed — goes through here, and ONLY here may the backing
  /// containers be touched (enforced by osprey_lint's wal-bypass rule).
  void apply(MetadataOp&& op);
  /// Write-ahead step of a live mutation: hand the op's record to the
  /// WAL hook (when one is attached), then apply the op.
  void log_and_apply(MetadataOp&& op);

  osprey::util::UuidFactory uuids_;
  std::map<std::string, DataObjectRecord> objects_;
  std::vector<RunRecord> runs_;
  mutable std::uint64_t queries_ = 0;
  std::uint64_t updates_ = 0;
  VersionListener version_listener_;
  WalHook wal_hook_;
};

}  // namespace osprey::aero
