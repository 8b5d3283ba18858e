#pragma once

/// \file fault.hpp
/// Deterministic fault injection for the simulated research fabric.
///
/// A FaultPlan decides — from a seed and counter-based hashing, never
/// from global RNG state — when a fabric service should misbehave:
/// dropped/stalled/corrupted transfers, compute kills, endpoint outage
/// windows, auth token expiry, storage ACL propagation races, upstream
/// source outages and flow-step stalls. Services consult the plan at
/// their injection points; every injected fault (and every recovery or
/// degradation action the orchestration layer takes) is appended to a
/// structured IncidentLog that chaos tests assert against.
///
/// Determinism guarantee: a chaos run is a pure function of (workload,
/// plan seed, plan configuration). The per-(kind, site) operation
/// counter is advanced only by should_inject() calls, which the
/// single-threaded EventLoop issues in a deterministic order, so two
/// runs with the same seed produce bit-identical incident logs.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/sim_time.hpp"

namespace osprey::fabric {

using osprey::util::SimTime;

/// Taxonomy of injectable faults (see DESIGN.md §"Fault model").
enum class FaultKind {
  kTransferDrop,     // transfer fails after setup latency (network drop)
  kTransferStall,    // transfer takes stall_delay longer than modeled
  kTransferCorrupt,  // payload bit-flipped in flight (checksum mismatch)
  kComputeKill,      // task killed mid-run (walltime-style kill)
  kEndpointOutage,   // compute endpoint / scheduler unreachable (window)
  kAuthExpiry,       // token validation fails transiently
  kAclRace,          // storage ACL propagation race (transient AuthError)
  kSourceOutage,     // upstream data source returns errors (window)
  kFlowStall,        // a flow step starts stall_delay late
  kProcessCrash,     // a service process dies mid-flow (volatile state
                     // lost; durable files survive — see aero::Wal)
};

inline constexpr int kNumFaultKinds = 10;

const char* fault_kind_name(FaultKind kind);

enum class IncidentCategory {
  kFault,     // a fault was injected
  kRecovery,  // the orchestration layer took a recovery action
  kDegraded,  // service degraded gracefully (e.g. stale estimate served)
};

const char* incident_category_name(IncidentCategory category);

/// One structured entry in the chaos record.
struct Incident {
  SimTime time = 0;
  IncidentCategory category = IncidentCategory::kFault;
  std::string kind;       // e.g. "transfer-corrupt", "retry-scheduled"
  std::string component;  // service that observed it: "transfer", "aero", ...
  std::string site;       // endpoint / flow / scheduler name
  std::string detail;
};

/// Append-only, deterministic record of faults and recovery actions.
class IncidentLog {
 public:
  void record(SimTime time, IncidentCategory category, std::string kind,
              std::string component, std::string site, std::string detail);

  const std::vector<Incident>& incidents() const { return incidents_; }
  std::size_t size() const { return incidents_.size(); }
  std::size_t count(IncidentCategory category) const;
  std::size_t count_kind(const std::string& kind) const;

  /// One line per incident; byte-identical across replays of the same
  /// seed (the chaos determinism tests compare this string).
  std::string to_string() const;

  void clear() { incidents_.clear(); }

 private:
  std::vector<Incident> incidents_;
};

/// Seeded, replayable decision-maker for fault injection.
///
/// Faults come in two forms:
///  - probabilistic: set_rate(kind[, site], rate) — each operation of
///    that kind at that site independently fails with `rate`, decided
///    by a counter-based hash of (seed, kind, site, op index);
///  - scripted: script_nth() fails one specific operation, and
///    script_window() declares an outage interval services poll with
///    in_window().
///
/// The event loop holds a non-owning pointer (EventLoop::set_fault_plan)
/// that every service on it reads at its injection points; AuthService,
/// which lives off the loop, takes its own. A null plan means no
/// injection and zero overhead.
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 0);

  std::uint64_t seed() const { return seed_; }

  /// Extra delay applied by kTransferStall and kFlowStall faults.
  SimTime stall_delay = 30 * osprey::util::kMinute;

  // --- configuration -----------------------------------------------
  /// Probabilistic rate for `kind` at every site.
  void set_rate(FaultKind kind, double rate);
  /// Site-specific rate (overrides the per-kind rate for that site).
  void set_rate(FaultKind kind, const std::string& site, double rate);

  /// Fail exactly the `nth` operation (0-based) of `kind` at `site`.
  void script_nth(FaultKind kind, const std::string& site, std::uint64_t nth);

  /// Declare an outage window [begin, end) for `kind` at `site`
  /// (empty site = every site). Queried with in_window().
  void script_window(FaultKind kind, const std::string& site, SimTime begin,
                     SimTime end);

  /// Restrict probabilistic faults to [begin, end). Scripted faults are
  /// unaffected. Lets chaos tests guarantee a quiet tail so pipelines
  /// can converge or settle into a degraded state.
  void set_active_window(SimTime begin, SimTime end);

  /// A structurally identical plan for an isolated replica (e.g. one
  /// shard partition): same rates, scripted operations, outage/active
  /// windows and stall delay, but a fresh seed mixed from `salt`, zero
  /// operation counters and an empty incident log. Each replica then
  /// draws its own deterministic fault stream — a pure function of
  /// (master seed, salt) — independent of every other replica.
  FaultPlan fork(std::uint64_t salt) const;

  // --- service-side queries ----------------------------------------
  /// Called once per fault-prone operation. Advances the (kind, site)
  /// counter, decides scripted-then-probabilistic, and records a kFault
  /// incident when firing.
  bool should_inject(FaultKind kind, const std::string& component,
                     const std::string& site, SimTime now);

  /// Is `now` inside an outage window for (kind, site)? Records one
  /// kFault incident per window on first observation.
  bool in_window(FaultKind kind, const std::string& component,
                 const std::string& site, SimTime now);

  /// Latest end of any matching window containing `now` (so services
  /// can schedule a re-check when the outage lifts). Returns `now`
  /// when no window matches.
  SimTime window_end(FaultKind kind, const std::string& site,
                     SimTime now) const;

  // --- introspection -----------------------------------------------
  IncidentLog& log() { return log_; }
  const IncidentLog& log() const { return log_; }

  std::uint64_t injected(FaultKind kind) const;
  std::uint64_t injected_total() const;
  /// Did at least one fault of `kind` actually fire?
  bool exercised(FaultKind kind) const { return injected(kind) > 0; }

 private:
  struct Window {
    FaultKind kind;
    std::string site;  // empty = all sites
    SimTime begin;
    SimTime end;
    bool reported = false;
  };

  using SiteKey = std::pair<int, std::string>;

  bool probabilistic_hit(FaultKind kind, const std::string& site,
                         std::uint64_t op_index, SimTime now) const;

  std::uint64_t seed_;
  double kind_rates_[kNumFaultKinds];
  std::map<SiteKey, double> site_rates_;
  std::map<SiteKey, std::set<std::uint64_t>> scripted_;
  std::map<SiteKey, std::uint64_t> op_counts_;
  std::vector<Window> windows_;
  SimTime active_begin_ = 0;
  SimTime active_end_ = -1;  // -1 = unbounded
  std::uint64_t injected_[kNumFaultKinds] = {};
  IncidentLog log_;
};

}  // namespace osprey::fabric
