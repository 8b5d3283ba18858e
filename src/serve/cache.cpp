#include "serve/cache.hpp"

#include "util/error.hpp"

namespace osprey::serve {

ResultCache::ResultCache(aero::AeroServer& server,
                         obs::MetricsRegistry& metrics)
    : server_(&server) {
  hits_ = &metrics.counter("serve_cache_hits_total",
                           "lookups answered from a validated entry");
  misses_ = &metrics.counter("serve_cache_misses_total",
                             "lookups with no entry (origin fetched)");
  revalidates_ = &metrics.counter(
      "serve_cache_revalidates_total",
      "lookups whose entry was invalidated (origin re-fetched)");
  invalidations_ = &metrics.counter(
      "serve_cache_invalidations_total",
      "entries invalidated by version bumps or degradation flips");
  listener_id_ = server_->add_update_listener(
      [this](const std::string& uuid) { invalidate(uuid); });
}

ResultCache::~ResultCache() { detach(); }

void ResultCache::detach() {
  if (server_ == nullptr) return;
  server_->remove_update_listener(listener_id_);
  listener_id_ = 0;
  server_ = nullptr;
}

void ResultCache::rebind(aero::AeroServer& server) {
  detach();
  // Invalidate everything cached before the restart: the recovered
  // origin decides afresh what is current and what is stale.
  for (auto& [uuid, entry] : entries_) {
    (void)uuid;
    if (entry.valid) {
      entry.valid = false;
      invalidations_->inc();
    }
  }
  server_ = &server;
  listener_id_ = server_->add_update_listener(
      [this](const std::string& uuid) { invalidate(uuid); });
}

void ResultCache::rebind(aero::AeroServer& server, std::string shard) {
  shard_ = std::move(shard);
  rebind(server);
}

CacheOutcome ResultCache::lookup_into(const std::string& uuid,
                                      aero::AeroServer::ServedEstimate& out) {
  auto it = entries_.find(uuid);
  // A hit requires the entry to carry the cache's CURRENT shard
  // qualifier; an entry fetched under a previous qualifier is as
  // untrustworthy as an invalidated one and must revalidate.
  if (it != entries_.end() && it->second.valid && it->second.shard == shard_) {
    hits_->inc();
    out = it->second.estimate;
    return CacheOutcome::kHit;
  }
  const CacheOutcome outcome =
      it == entries_.end() ? CacheOutcome::kMiss : CacheOutcome::kRevalidate;
  (outcome == CacheOutcome::kMiss ? misses_ : revalidates_)->inc();
  if (it == entries_.end()) it = entries_.try_emplace(uuid).first;
  Entry& entry = it->second;
  entry.estimate = fetch_origin(uuid);
  entry.valid = true;
  entry.shard = shard_;
  out = entry.estimate;
  return outcome;
}

ResultCache::Result ResultCache::lookup(const std::string& uuid) {
  Result r;
  r.outcome = lookup_into(uuid, r.estimate);
  r.shard = shard_;
  return r;
}

void ResultCache::invalidate(const std::string& uuid) {
  auto it = entries_.find(uuid);
  if (it != entries_.end() && it->second.valid) {
    it->second.valid = false;
    invalidations_->inc();
  }
}

aero::AeroServer::ServedEstimate ResultCache::fetch_origin(
    const std::string& uuid) {
  OSPREY_REQUIRE(server_ != nullptr, "ResultCache is detached from its origin");
  // The cache is the serving tier's one sanctioned origin client; all
  // other serve-tier code must go through lookup().
  return server_->serve_latest(uuid);  // osprey-lint: allow(serve-direct-origin)
}

}  // namespace osprey::serve
