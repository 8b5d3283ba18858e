#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "util/error.hpp"

namespace osprey::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)

#define OSPREY_SHA_NI __attribute__((target("sha,sse4.1,ssse3")))

/// Four rounds on the state halves ABEF/CDGH with message quad `w`.
OSPREY_SHA_NI inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i w,
                                  int round) {
  __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[round])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// The message quad after w0..w3 (W[t+16..t+19] from W[t..t+15]).
OSPREY_SHA_NI inline __m128i next_quad(__m128i w0, __m128i w1, __m128i w2,
                                       __m128i w3) {
  __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                            _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

OSPREY_SHA_NI void shani_blocks(std::uint32_t* state,
                                const std::uint8_t* data,
                                std::size_t blocks) {
  // Big-endian message words: reverse the bytes of each 32-bit lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // The round instructions want the state as ABEF and CDGH.
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int q = 0; q < 4; ++q) {
      w[q] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * q)),
          bswap);
      rounds4(abef, cdgh, w[q], 4 * q);
    }
    for (int round = 16; round < 64; round += 16) {
      w[0] = next_quad(w[0], w[1], w[2], w[3]);
      rounds4(abef, cdgh, w[0], round);
      w[1] = next_quad(w[1], w[2], w[3], w[0]);
      rounds4(abef, cdgh, w[1], round + 4);
      w[2] = next_quad(w[2], w[3], w[0], w[1]);
      rounds4(abef, cdgh, w[2], round + 8);
      w[3] = next_quad(w[3], w[0], w[1], w[2]);
      rounds4(abef, cdgh, w[3], round + 12);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#undef OSPREY_SHA_NI

/// CPUID: leaf 1 ECX has SSSE3 (bit 9) and SSE4.1 (bit 19); leaf 7
/// EBX has SHA (bit 29).
bool cpu_has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  if ((c & (1u << 9)) == 0 || (c & (1u << 19)) == 0) return false;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return (b & (1u << 29)) != 0;
}

#endif  // __x86_64__

/// The kernel every Sha256 uses: the hardware one where the CPU has it.
detail::BlockKernel dispatched_blocks() {
  detail::BlockKernel hardware = detail::hardware_blocks();
  return hardware != nullptr ? hardware : detail::portable_blocks;
}

}  // namespace

namespace detail {

void portable_blocks(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t(data[4 * i]) << 24) |
             (std::uint32_t(data[4 * i + 1]) << 16) |
             (std::uint32_t(data[4 * i + 2]) << 8) |
             std::uint32_t(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + S1 + ch + kK[i] + w[i];
      std::uint32_t S0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = S0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

BlockKernel hardware_blocks() {
#if defined(__x86_64__)
  static const bool available = cpu_has_sha_ni();
  if (available) return shani_blocks;
#endif
  return nullptr;
}

std::array<std::uint8_t, 32> digest_with(BlockKernel kernel, const void* data,
                                         std::size_t len) {
  Sha256 h(kernel);
  h.update(data, len);
  return h.digest();
}

}  // namespace detail

Sha256::Sha256() : Sha256(dispatched_blocks()) {}

Sha256::Sha256(detail::BlockKernel kernel) : kernel_(kernel) { reset(); }

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_bits_ = 0;
  finalized_ = false;
}

void Sha256::update(const void* data, std::size_t len) {
  OSPREY_REQUIRE(!finalized_, "update() after digest()");
  if (len == 0) return;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_bits_ += static_cast<std::uint64_t>(len) * 8;
  // Top up a partial block first.
  if (buffer_len_ > 0) {
    std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, bytes, take);
    buffer_len_ += take;
    bytes += take;
    len -= take;
    if (buffer_len_ < buffer_.size()) return;
    kernel_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the caller's bytes; keep the tail.
  std::size_t blocks = len / buffer_.size();
  if (blocks > 0) {
    kernel_(state_.data(), bytes, blocks);
    bytes += blocks * buffer_.size();
    len -= blocks * buffer_.size();
  }
  if (len > 0) std::memcpy(buffer_.data(), bytes, len);
  buffer_len_ = len;
}

std::array<std::uint8_t, 32> Sha256::digest() {
  OSPREY_REQUIRE(!finalized_, "digest() called twice");
  finalized_ = true;
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length, in one
  // or two final blocks.
  std::uint8_t tail[128] = {};
  std::memcpy(tail, buffer_.data(), buffer_len_);
  tail[buffer_len_] = 0x80;
  const std::size_t tail_len = buffer_len_ < 56 ? 64 : 128;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 8 + i] =
        static_cast<std::uint8_t>(total_bits_ >> (56 - 8 * i));
  }
  kernel_(state_.data(), tail, tail_len / 64);
  std::array<std::uint8_t, 32> out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::string Sha256::hex_digest() {
  auto d = digest();
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(2 * d.size(), '\0');
  for (std::size_t i = 0; i < d.size(); ++i) {
    out[2 * i] = kHex[d[i] >> 4];
    out[2 * i + 1] = kHex[d[i] & 0xf];
  }
  return out;
}

std::string Sha256::hash_hex(const std::string& payload) {
  Sha256 h;
  h.update(payload);
  return h.hex_digest();
}

}  // namespace osprey::crypto
