#include "aero/metadata_db.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace osprey::aero {

namespace {

using osprey::util::Value;
using osprey::util::ValueArray;
using osprey::util::ValueObject;

Value version_to_json(const DataVersion& v) {
  ValueObject obj;
  obj["version"] = Value(v.version);
  obj["checksum"] = Value(v.checksum);
  obj["size_bytes"] = Value(static_cast<std::int64_t>(v.size_bytes));
  obj["timestamp"] = Value(v.timestamp);
  obj["endpoint"] = Value(v.endpoint);
  obj["collection"] = Value(v.collection);
  obj["path"] = Value(v.path);
  return Value(std::move(obj));
}

DataVersion version_from_json(const Value& v) {
  DataVersion out;
  out.version = static_cast<int>(v.at("version").as_int());
  out.checksum = v.at("checksum").as_string();
  out.size_bytes = static_cast<std::uint64_t>(v.at("size_bytes").as_int());
  out.timestamp = v.at("timestamp").as_int();
  out.endpoint = v.at("endpoint").as_string();
  out.collection = v.at("collection").as_string();
  out.path = v.at("path").as_string();
  return out;
}

Value refs_to_json(const std::vector<VersionRef>& refs) {
  ValueArray arr;
  for (const VersionRef& r : refs) {
    ValueObject obj;
    obj["uuid"] = Value(r.uuid);
    obj["version"] = Value(r.version);
    arr.emplace_back(std::move(obj));
  }
  return Value(std::move(arr));
}

std::vector<VersionRef> refs_from_json(const Value& v) {
  std::vector<VersionRef> out;
  for (const Value& e : v.as_array()) {
    out.push_back(VersionRef{e.at("uuid").as_string(),
                             static_cast<int>(e.at("version").as_int())});
  }
  return out;
}

const char* run_status_name(RunStatus s) {
  switch (s) {
    case RunStatus::kRunning: return "running";
    case RunStatus::kSucceeded: return "succeeded";
    case RunStatus::kFailed: return "failed";
  }
  return "?";
}

RunStatus run_status_from_name(const std::string& s) {
  if (s == "running") return RunStatus::kRunning;
  if (s == "succeeded") return RunStatus::kSucceeded;
  if (s == "failed") return RunStatus::kFailed;
  throw osprey::util::InvalidArgument("unknown run status: " + s);
}

const char* flow_kind_name(FlowKind k) {
  return k == FlowKind::kIngestion ? "ingestion" : "analysis";
}

FlowKind flow_kind_from_name(const std::string& s) {
  return s == "ingestion" ? FlowKind::kIngestion : FlowKind::kAnalysis;
}

/// The WAL's operation record for `op`. Keys and values are the on-disk
/// format: changing them breaks recovery of existing logs.
Value op_to_record(const MetadataOp& op) {
  ValueObject record;
  if (const auto* reg = std::get_if<RegisterObjectOp>(&op)) {
    record["op"] = Value("register_object");
    record["uuid"] = Value(reg->uuid);
    record["name"] = Value(reg->name);
    record["producer_flow"] = Value(reg->producer_flow);
  } else if (const auto* add = std::get_if<AddVersionOp>(&op)) {
    record = std::move(version_to_json(add->version).as_object());
    record["op"] = Value("add_version");
    record["uuid"] = Value(add->uuid);
  } else if (const auto* start = std::get_if<StartRunOp>(&op)) {
    const RunRecord& run = start->run;
    record["op"] = Value("start_run");
    record["run_id"] = Value(static_cast<std::int64_t>(run.run_id));
    record["flow_name"] = Value(run.flow_name);
    record["kind"] = Value(flow_kind_name(run.kind));
    record["trigger"] = Value(run.trigger);
    record["inputs"] = refs_to_json(run.inputs);
    record["compute_endpoint"] = Value(run.compute_endpoint);
    record["started"] = Value(run.started);
  } else {
    const auto& finish = std::get<FinishRunOp>(op);
    record["op"] = Value("finish_run");
    record["run_id"] = Value(static_cast<std::int64_t>(finish.run_id));
    record["status"] = Value(run_status_name(finish.status));
    record["outputs"] = refs_to_json(finish.outputs);
    record["ended"] = Value(finish.ended);
  }
  return Value(std::move(record));
}

/// Inverse of op_to_record (the replay path). Throws on an unknown op
/// or a missing field.
MetadataOp op_from_record(const Value& record) {
  const std::string& op = record.at("op").as_string();
  if (op == "register_object") {
    return RegisterObjectOp{record.at("uuid").as_string(),
                            record.at("name").as_string(),
                            record.at("producer_flow").as_string()};
  }
  if (op == "add_version") {
    return AddVersionOp{record.at("uuid").as_string(),
                        version_from_json(record)};
  }
  if (op == "start_run") {
    StartRunOp start;
    RunRecord& run = start.run;
    run.run_id = static_cast<std::uint64_t>(record.at("run_id").as_int());
    run.flow_name = record.at("flow_name").as_string();
    run.kind = flow_kind_from_name(record.at("kind").as_string());
    run.trigger = record.at("trigger").as_string();
    run.inputs = refs_from_json(record.at("inputs"));
    run.compute_endpoint = record.at("compute_endpoint").as_string();
    run.started = record.at("started").as_int();
    return start;
  }
  if (op == "finish_run") {
    return FinishRunOp{
        static_cast<std::uint64_t>(record.at("run_id").as_int()),
        run_status_from_name(record.at("status").as_string()),
        refs_from_json(record.at("outputs")), record.at("ended").as_int()};
  }
  throw osprey::util::InvalidArgument("unknown metadata op: " + op);
}

}  // namespace

MetadataDb::MetadataDb(std::uint64_t uuid_seed) : uuids_(uuid_seed) {}

// ---------------------------------------------------------------------
// The apply path: the only place state mutates. Live mutators build a
// typed op, push its record through the WAL hook (append-before-mutate)
// and then apply it; recovery decodes persisted records into the same
// ops and applies them through the same function, so both paths take
// identical state transitions.
// ---------------------------------------------------------------------

void MetadataDb::apply(MetadataOp&& op) {
  if (auto* reg = std::get_if<RegisterObjectOp>(&op)) {
    // Drawing here (instead of trusting the op) keeps the generator in
    // lockstep on both paths and turns any WAL/state divergence into a
    // loud failure instead of silent uuid reuse.
    std::string uuid = uuids_.next();
    OSPREY_REQUIRE(uuid == reg->uuid,
                   "uuid sequence diverged from the WAL record");
    DataObjectRecord rec;
    rec.uuid = std::move(reg->uuid);
    rec.name = std::move(reg->name);
    rec.producer_flow = std::move(reg->producer_flow);
    // osprey-lint: allow(wal-bypass) — the sanctioned apply() site
    OSPREY_REQUIRE(objects_.emplace(std::move(uuid), std::move(rec)).second,
                   "duplicate object uuid");
  } else if (auto* add = std::get_if<AddVersionOp>(&op)) {
    auto it = objects_.find(add->uuid);
    OSPREY_REQUIRE(it != objects_.end(), "add_version for unknown object");
    OSPREY_REQUIRE(add->version.version ==
                       static_cast<int>(it->second.versions.size()) + 1,
                   "version numbers must be dense");
    // osprey-lint: allow(wal-bypass) — the sanctioned apply() site
    it->second.versions.push_back(std::move(add->version));
  } else if (auto* start = std::get_if<StartRunOp>(&op)) {
    OSPREY_REQUIRE(start->run.run_id == runs_.size(),
                   "run ids must be dense");
    // osprey-lint: allow(wal-bypass) — the sanctioned apply() site
    runs_.push_back(std::move(start->run));
  } else {
    auto& finish = std::get<FinishRunOp>(op);
    OSPREY_REQUIRE(finish.run_id < runs_.size(), "unknown run id");
    RunRecord& rec = runs_[finish.run_id];
    rec.status = finish.status;
    rec.outputs = std::move(finish.outputs);
    rec.ended = finish.ended;
  }
}

void MetadataDb::log_and_apply(MetadataOp&& op) {
  if (wal_hook_) wal_hook_(op_to_record(op));
  apply(std::move(op));
}

void MetadataDb::apply_replay(const osprey::util::Value& record) {
  apply(op_from_record(record));
}

std::string MetadataDb::register_object(const std::string& name,
                                        const std::string& producer_flow) {
  // Peek the uuid the generator will assign so the WAL record — written
  // before any state changes — already carries it.
  osprey::util::UuidFactory peek = uuids_;
  std::string uuid = peek.next();
  log_and_apply(RegisterObjectOp{uuid, name, producer_flow});
  ++updates_;
  return uuid;
}

bool MetadataDb::has_object(const std::string& uuid) const {
  ++queries_;
  return objects_.count(uuid) > 0;
}

const DataObjectRecord& MetadataDb::object(const std::string& uuid) const {
  ++queries_;
  auto it = objects_.find(uuid);
  if (it == objects_.end()) {
    throw osprey::util::NotFound("no such data object: " + uuid);
  }
  return it->second;
}

const DataVersion& MetadataDb::add_version(
    const std::string& uuid, const std::string& checksum,
    std::uint64_t size_bytes, SimTime timestamp, const std::string& endpoint,
    const std::string& collection, const std::string& path) {
  auto it = objects_.find(uuid);
  if (it == objects_.end()) {
    throw osprey::util::NotFound("no such data object: " + uuid);
  }
  AddVersionOp op;
  op.uuid = uuid;
  DataVersion& v = op.version;
  v.version = static_cast<int>(it->second.versions.size()) + 1;
  v.checksum = checksum;
  v.size_bytes = size_bytes;
  v.timestamp = timestamp;
  v.endpoint = endpoint;
  v.collection = collection;
  v.path = path;
  log_and_apply(std::move(op));
  ++updates_;
  const DataVersion& added = it->second.versions.back();
  if (version_listener_) version_listener_(uuid, added.version);
  return added;
}

std::optional<DataVersion> MetadataDb::latest_version(
    const std::string& uuid) const {
  const DataObjectRecord& rec = object(uuid);
  if (rec.versions.empty()) return std::nullopt;
  return rec.versions.back();
}

int MetadataDb::latest_version_number(const std::string& uuid) const {
  const DataObjectRecord& rec = object(uuid);
  return rec.versions.empty() ? 0 : rec.versions.back().version;
}

std::vector<std::string> MetadataDb::object_uuids() const {
  ++queries_;
  std::vector<std::string> out;
  out.reserve(objects_.size());
  for (const auto& [uuid, rec] : objects_) {
    (void)rec;
    out.push_back(uuid);
  }
  return out;
}

std::vector<MetadataDb::ObjectSummary> MetadataDb::find_objects(
    const std::string& name_prefix) const {
  ++queries_;
  std::vector<ObjectSummary> out;
  for (const auto& [uuid, rec] : objects_) {
    if (rec.name.compare(0, name_prefix.size(), name_prefix) != 0) continue;
    ObjectSummary s;
    s.uuid = uuid;
    s.name = rec.name;
    s.producer_flow = rec.producer_flow;
    s.latest_version =
        rec.versions.empty() ? 0 : rec.versions.back().version;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const ObjectSummary& a, const ObjectSummary& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.uuid < b.uuid;
            });
  return out;
}

std::uint64_t MetadataDb::start_run(const std::string& flow_name,
                                    FlowKind kind, const std::string& trigger,
                                    std::vector<VersionRef> inputs,
                                    const std::string& compute_endpoint,
                                    SimTime started) {
  const std::uint64_t run_id = runs_.size();
  StartRunOp op;
  RunRecord& run = op.run;
  run.run_id = run_id;
  run.flow_name = flow_name;
  run.kind = kind;
  run.trigger = trigger;
  run.inputs = std::move(inputs);
  run.compute_endpoint = compute_endpoint;
  run.started = started;
  log_and_apply(std::move(op));
  ++updates_;
  return run_id;
}

void MetadataDb::finish_run(std::uint64_t run_id, RunStatus status,
                            std::vector<VersionRef> outputs, SimTime ended) {
  OSPREY_REQUIRE(run_id < runs_.size(), "unknown run id");
  log_and_apply(FinishRunOp{run_id, status, std::move(outputs), ended});
  ++updates_;
}

const RunRecord& MetadataDb::run(std::uint64_t run_id) const {
  OSPREY_REQUIRE(run_id < runs_.size(), "unknown run id");
  ++queries_;
  return runs_[run_id];
}

namespace {

/// Generic BFS over the run graph. `forward` = false walks inputs
/// (upstream); true walks outputs (downstream).
MetadataDb::Lineage walk(const std::vector<RunRecord>& runs,
                         const std::string& start, bool forward) {
  MetadataDb::Lineage out;
  std::set<std::string> seen_objects{start};
  std::set<std::uint64_t> seen_runs;
  std::vector<std::string> frontier{start};
  while (!frontier.empty()) {
    std::string current = frontier.back();
    frontier.pop_back();
    for (const RunRecord& run : runs) {
      const auto& from = forward ? run.inputs : run.outputs;
      const auto& to = forward ? run.outputs : run.inputs;
      bool touches = false;
      for (const VersionRef& ref : from) {
        if (ref.uuid == current) {
          touches = true;
          break;
        }
      }
      if (!touches) continue;
      seen_runs.insert(run.run_id);
      for (const VersionRef& ref : to) {
        if (seen_objects.insert(ref.uuid).second) {
          frontier.push_back(ref.uuid);
        }
      }
    }
  }
  out.object_uuids.assign(seen_objects.begin(), seen_objects.end());
  out.run_ids.assign(seen_runs.begin(), seen_runs.end());
  return out;
}

}  // namespace

MetadataDb::Lineage MetadataDb::upstream_lineage(
    const std::string& uuid) const {
  ++queries_;
  if (objects_.count(uuid) == 0) {
    throw osprey::util::NotFound("no such data object: " + uuid);
  }
  return walk(runs_, uuid, /*forward=*/false);
}

MetadataDb::Lineage MetadataDb::downstream_lineage(
    const std::string& uuid) const {
  ++queries_;
  if (objects_.count(uuid) == 0) {
    throw osprey::util::NotFound("no such data object: " + uuid);
  }
  return walk(runs_, uuid, /*forward=*/true);
}

osprey::util::Value MetadataDb::to_json() const {
  ++queries_;
  ValueArray objects;
  for (const auto& [uuid, rec] : objects_) {
    ValueObject obj;
    obj["uuid"] = Value(uuid);
    obj["name"] = Value(rec.name);
    obj["producer_flow"] = Value(rec.producer_flow);
    ValueArray version_arr;
    for (const DataVersion& v : rec.versions) {
      version_arr.push_back(version_to_json(v));
    }
    obj["versions"] = Value(std::move(version_arr));
    objects.emplace_back(std::move(obj));
  }
  ValueArray runs;
  for (const RunRecord& run : runs_) {
    ValueObject obj;
    obj["run_id"] = Value(static_cast<std::int64_t>(run.run_id));
    obj["flow_name"] = Value(run.flow_name);
    obj["kind"] = Value(flow_kind_name(run.kind));
    obj["trigger"] = Value(run.trigger);
    obj["inputs"] = refs_to_json(run.inputs);
    obj["outputs"] = refs_to_json(run.outputs);
    obj["compute_endpoint"] = Value(run.compute_endpoint);
    obj["status"] = Value(run_status_name(run.status));
    obj["started"] = Value(run.started);
    obj["ended"] = Value(run.ended);
    runs.emplace_back(std::move(obj));
  }
  ValueObject root;
  root["snapshot_format"] = Value(std::int64_t{2});
  root["uuid_state"] = Value(static_cast<std::int64_t>(uuids_.state()));
  root["objects"] = Value(std::move(objects));
  root["runs"] = Value(std::move(runs));
  return Value(std::move(root));
}

void MetadataDb::load_snapshot(const osprey::util::Value& json) {
  OSPREY_REQUIRE(json.get_or("snapshot_format", std::int64_t{0}) == 2,
                 "unsupported metadata snapshot format");
  const auto uuid_state =
      static_cast<std::uint64_t>(json.at("uuid_state").as_int());
  // osprey-lint: allow(wal-bypass) — snapshot restore resets state
  objects_.clear();
  runs_.clear();  // osprey-lint: allow(wal-bypass)
  for (const Value& obj : json.at("objects").as_array()) {
    DataObjectRecord rec;
    rec.uuid = obj.at("uuid").as_string();
    rec.name = obj.at("name").as_string();
    rec.producer_flow = obj.at("producer_flow").as_string();
    for (const Value& v : obj.at("versions").as_array()) {
      rec.versions.push_back(version_from_json(v));
    }
    // osprey-lint: allow(wal-bypass) — snapshot restore
    OSPREY_REQUIRE(objects_.emplace(rec.uuid, rec).second,
                   "duplicate object uuid in snapshot");
  }
  for (const Value& r : json.at("runs").as_array()) {
    RunRecord rec;
    rec.run_id = static_cast<std::uint64_t>(r.at("run_id").as_int());
    OSPREY_REQUIRE(rec.run_id == runs_.size(),
                   "run ids must be dense in a snapshot");
    rec.flow_name = r.at("flow_name").as_string();
    rec.kind = flow_kind_from_name(r.at("kind").as_string());
    rec.trigger = r.at("trigger").as_string();
    rec.inputs = refs_from_json(r.at("inputs"));
    rec.outputs = refs_from_json(r.at("outputs"));
    rec.compute_endpoint = r.at("compute_endpoint").as_string();
    rec.status = run_status_from_name(r.at("status").as_string());
    rec.started = r.at("started").as_int();
    rec.ended = r.at("ended").as_int();
    // osprey-lint: allow(wal-bypass) — snapshot restore
    runs_.push_back(std::move(rec));
  }
  uuids_.set_state(uuid_state);
}

MetadataDb MetadataDb::from_json(const osprey::util::Value& json) {
  MetadataDb db;
  db.load_snapshot(json);
  return db;
}

std::string MetadataDb::provenance_dot() const {
  std::ostringstream out;
  out << "digraph provenance {\n  rankdir=LR;\n";
  for (const auto& [uuid, rec] : objects_) {
    out << "  \"" << uuid.substr(0, 8) << "\" [shape=ellipse,label=\""
        << rec.name << "\\nv" << rec.versions.size() << "\"];\n";
  }
  for (const RunRecord& run : runs_) {
    std::string rnode = "run" + std::to_string(run.run_id);
    out << "  \"" << rnode << "\" [shape=box,label=\"" << run.flow_name
        << "#" << run.run_id << "\"];\n";
    for (const VersionRef& in : run.inputs) {
      out << "  \"" << in.uuid.substr(0, 8) << "\" -> \"" << rnode
          << "\" [label=\"v" << in.version << "\"];\n";
    }
    for (const VersionRef& o : run.outputs) {
      out << "  \"" << rnode << "\" -> \"" << o.uuid.substr(0, 8)
          << "\" [label=\"v" << o.version << "\"];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace osprey::aero
