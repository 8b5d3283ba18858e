#include "util/uuid.hpp"

#include <cstdio>

#include "util/hash.hpp"

namespace osprey::util {

UuidFactory::UuidFactory(std::uint64_t seed) : state_(seed) {}

std::uint64_t UuidFactory::next_u64() {
  // splitmix64: tiny, fast, and statistically fine for identifiers.
  const std::uint64_t z = mix64(state_);
  state_ += kGoldenGamma;
  return z;
}

std::string UuidFactory::next() {
  std::uint64_t hi = next_u64();
  std::uint64_t lo = next_u64();
  // Stamp the version (4) and variant (10xx) bits per RFC 4122.
  hi = (hi & 0xffffffffffff0fffULL) | 0x0000000000004000ULL;
  lo = (lo & 0x3fffffffffffffffULL) | 0x8000000000000000ULL;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%08x-%04x-%04x-%04x-%012llx",
                static_cast<unsigned>(hi >> 32),
                static_cast<unsigned>((hi >> 16) & 0xffff),
                static_cast<unsigned>(hi & 0xffff),
                static_cast<unsigned>(lo >> 48),
                static_cast<unsigned long long>(lo & 0xffffffffffffULL));
  return buf;
}

bool looks_like_uuid(const std::string& s) {
  if (s.size() != 36) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i == 8 || i == 13 || i == 18 || i == 23) {
      if (s[i] != '-') return false;
    } else {
      char c = s[i];
      bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
                 (c >= 'A' && c <= 'F');
      if (!hex) return false;
    }
  }
  return true;
}

}  // namespace osprey::util
