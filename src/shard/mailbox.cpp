#include "shard/mailbox.hpp"

#include <algorithm>
#include <iterator>
#include <tuple>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace osprey::shard {

using osprey::util::fnv1a;
using osprey::util::mix64;

std::string_view topic(const Envelope& env) {
  // In Body's alternative order.
  static constexpr std::string_view kNames[] = {
      "register-feed", "register-aggregate", "version", "aggregate-input"};
  static_assert(std::size(kNames) == std::variant_size_v<Body>);
  return kNames[env.body.index()];
}

bool envelope_before(const Envelope& a, const Envelope& b) {
  return std::tie(a.tick, a.origin, a.seq) < std::tie(b.tick, b.origin, b.seq);
}

std::uint64_t stable_key_hash(const std::string& key) { return fnv1a(key); }

std::size_t shard_of(const std::string& key, std::size_t num_shards) {
  OSPREY_REQUIRE(num_shards >= 1, "need at least one shard");
  return static_cast<std::size_t>(stable_key_hash(key) % num_shards);
}

Outbox::Outbox(std::uint32_t origin, std::uint64_t seed)
    : origin_(origin),
      seed_(seed),
      base_stamp_(mix64(seed ^ mix64(origin))) {}

void Outbox::post(std::uint64_t tick, std::string dest, Body body) {
  Envelope& env = pending_.emplace_back();
  env.tick = tick;
  env.origin = origin_;
  env.seq = seq_++;
  env.stamp = mix64(base_stamp_ ^ env.seq);
  env.dest = std::move(dest);
  env.body = std::move(body);
}

void Outbox::drain_into(std::vector<Envelope>& batch) {
  std::move(pending_.begin(), pending_.end(), std::back_inserter(batch));
  pending_.clear();
}

void check_barrier_order(const std::vector<Envelope>& batch) {
  OSPREY_CHECK(std::is_sorted(batch.begin(), batch.end(), envelope_before),
               "barrier batch is not in (tick, origin, seq) order");
}

}  // namespace osprey::shard
