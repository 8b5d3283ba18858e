#pragma once

/// \file sha256.hpp
/// From-scratch SHA-256 (FIPS 180-4). AERO stores a checksum with every
/// data version; the simulated Globus transfer layer verifies payload
/// integrity with the same digests.
///
/// Whole 64-byte blocks go through one of two compression kernels,
/// picked once per process: the x86 SHA extensions (SHA-NI) when the
/// CPU has them, otherwise a portable C++ kernel. Both produce the same
/// digest for every input.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace osprey::crypto {

/// Test seam, not a runtime switch: the two block kernels, so tests and
/// micro-benchmarks can check and time each one.
namespace detail {

/// Compresses `blocks` consecutive 64-byte blocks into `state`.
using BlockKernel = void (*)(std::uint32_t* state, const std::uint8_t* data,
                             std::size_t blocks);

void portable_blocks(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks);
/// The SHA-NI kernel, or nullptr on CPUs without the SHA extensions.
BlockKernel hardware_blocks();
/// One-shot digest of `len` bytes through `kernel`.
std::array<std::uint8_t, 32> digest_with(BlockKernel kernel, const void* data,
                                         std::size_t len);

}  // namespace detail

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256();

  /// Absorb `len` bytes.
  void update(const void* data, std::size_t len);
  void update(const std::string& s) { update(s.data(), s.size()); }

  /// Finalize and return the 32-byte digest. The hasher must not be
  /// updated afterwards (reset() to reuse).
  std::array<std::uint8_t, 32> digest();

  /// Finalize and return the digest as lowercase hex.
  std::string hex_digest();

  void reset();

  /// One-shot convenience: hex digest of a string payload.
  static std::string hash_hex(const std::string& payload);

 private:
  friend std::array<std::uint8_t, 32> detail::digest_with(
      detail::BlockKernel kernel, const void* data, std::size_t len);
  explicit Sha256(detail::BlockKernel kernel);

  detail::BlockKernel kernel_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bits_ = 0;
  bool finalized_ = false;
};

}  // namespace osprey::crypto
