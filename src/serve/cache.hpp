#pragma once

/// \file cache.hpp
/// Version-keyed result cache fronting AeroServer::serve_latest().
/// Lookup states follow Apache Traffic Server's cache model:
///
///   hit        — a validated entry exists; answered without touching
///                the origin (no metadata query, no serve_latest call).
///   miss       — no entry for the uuid; fetched from the origin and
///                cached.
///   revalidate — an entry exists but was invalidated by an update
///                notification; re-fetched from the origin (the entry's
///                last-good body is still available to degraded reads).
///
/// Entries are keyed by (uuid, DataVersion) semantically: the cached
/// body is the ServedEstimate for one specific version, and the entry
/// is invalidated — never silently reused — when AERO registers a new
/// version OR flips the object's degradation state. Degradation matters
/// as much as version bumps: a producer failure changes the honest
/// answer (stale=true + reason) even though no new version appeared, so
/// the cache revalidates and serves the last-good estimate WITH the
/// staleness reason attached. A stale answer can therefore never be
/// laundered into a fresh-looking hit.

#include <cstdint>
#include <string>
#include <unordered_map>

#include "aero/server.hpp"
#include "obs/metrics.hpp"

namespace osprey::serve {

enum class CacheOutcome { kHit, kMiss, kRevalidate };

class ResultCache {
 public:
  /// Registers an update listener on `server` for invalidation; the
  /// cache must be destroyed (it unregisters itself) before the server.
  /// Counters land in `metrics` under serve_cache_* names.
  ResultCache(aero::AeroServer& server, obs::MetricsRegistry& metrics);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  struct Result {
    CacheOutcome outcome = CacheOutcome::kMiss;
    aero::AeroServer::ServedEstimate estimate;
    /// Shard qualifier the answer was fetched under ("" unsharded).
    std::string shard;
  };

  /// Shard qualifier for every subsequently cached answer (DESIGN.md
  /// §7): in a sharded fabric each partition's cache is stamped with
  /// its partition key, and an entry only counts as a hit when its
  /// qualifier matches the cache's CURRENT one. Rebinding to a
  /// different shard (or a recovered instance of the same shard)
  /// therefore forces revalidation — a version fetched under one
  /// shard's origin can never be served as a fresh hit under another.
  void set_shard(std::string shard) { shard_ = std::move(shard); }
  const std::string& shard() const { return shard_; }

  /// Serve `uuid` from cache, fetching from the origin on miss or
  /// revalidate, and copy-assign the estimate into `out` (a hit reuses
  /// `out`'s string capacity, so a warm buffer allocates nothing). The
  /// estimate carries AERO's staleness signal verbatim (reason empty iff
  /// fresh).
  CacheOutcome lookup_into(const std::string& uuid,
                           aero::AeroServer::ServedEstimate& out);
  /// lookup_into() a fresh Result, stamped with the current shard.
  Result lookup(const std::string& uuid);

  /// Mark `uuid`'s entry for revalidation (no-op when absent or already
  /// invalid). Wired to AeroServer's update listener; public so tests
  /// can exercise invalidation directly.
  void invalidate(const std::string& uuid);

  // --- crash-recovery rebinding (DESIGN.md §4f) ----------------------
  /// Unhook from the origin server (e.g. just before it is destroyed in
  /// a process-crash drill). Detached lookups throw; entries are kept
  /// for rebind().
  void detach();
  /// Attach to a (re)started origin. EVERY entry is invalidated first:
  /// the new server may have recovered past the cached state, so
  /// nothing cached across a restart may ever be served as a fresh hit.
  void rebind(aero::AeroServer& server);
  /// Rebind AND adopt a new shard qualifier in one step (the sharded
  /// crash-recovery path: the restarted partition re-qualifies every
  /// subsequently served version).
  void rebind(aero::AeroServer& server, std::string shard);

  std::size_t size() const { return entries_.size(); }
  std::uint64_t hits() const { return hits_->value(); }
  std::uint64_t misses() const { return misses_->value(); }
  std::uint64_t revalidates() const { return revalidates_->value(); }
  std::uint64_t invalidations() const { return invalidations_->value(); }

 private:
  aero::AeroServer::ServedEstimate fetch_origin(const std::string& uuid);

  struct Entry {
    bool valid = false;  // false => next lookup revalidates
    aero::AeroServer::ServedEstimate estimate;
    std::string shard;  // qualifier the estimate was fetched under
  };

  aero::AeroServer* server_ = nullptr;  // null while detached
  std::uint64_t listener_id_ = 0;
  std::string shard_;
  // Hashed: nothing reads it in key order (rebind's sweep only counts).
  std::unordered_map<std::string, Entry> entries_;

  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* revalidates_ = nullptr;
  obs::Counter* invalidations_ = nullptr;
};

}  // namespace osprey::serve
