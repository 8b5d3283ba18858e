#pragma once

/// \file hash.hpp
/// The one seeded-hash primitive. Every replayable draw that is not a
/// num::RngStream hashes a (seed, key, counter) tuple through these:
/// retry jitter, fault injection, Zipf request draws, envelope stamps
/// and partition seeds; the RNG and uuid streams take their splitmix64
/// steps from mix64 too. Header-inline, so the per-request and
/// per-envelope callers pay no call. Changing any bit here changes every
/// seeded artifact.

#include <cstdint>
#include <string_view>

namespace osprey::util {

/// The splitmix64 increment, 2^64 divided by the golden ratio.
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64's output for state `z`: add the increment, then finalize.
/// Stateless, so `mix64(seed ^ mix64(counter))` is a counter-based draw.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z += kGoldenGamma;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// 64-bit FNV-1a: stable across runs and platforms, unlike std::hash.
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The top 53 bits of `bits` as a double in [0, 1).
constexpr double unit_double(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace osprey::util
