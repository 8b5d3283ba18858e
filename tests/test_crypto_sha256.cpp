#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace oc = osprey::crypto;
namespace ocd = osprey::crypto::detail;

// NIST / well-known SHA-256 test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(oc::Sha256::hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(oc::Sha256::hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      oc::Sha256::hash_hex(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  oc::Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.hex_digest(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string payload = "day,conc\n0,10.5\n1,20.25\n";
  oc::Sha256 h;
  for (char c : payload) h.update(&c, 1);
  EXPECT_EQ(h.hex_digest(), oc::Sha256::hash_hex(payload));
}

TEST(Sha256, BoundaryLengths) {
  // Lengths around the 55/56/64-byte padding boundaries must all work
  // and be distinct.
  std::set<std::string> digests;
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    digests.insert(oc::Sha256::hash_hex(std::string(len, 'x')));
  }
  EXPECT_EQ(digests.size(), 9u);
}

TEST(Sha256, ResetAllowsReuse) {
  oc::Sha256 h;
  h.update("abc");
  std::string first = h.hex_digest();
  h.reset();
  h.update("abc");
  EXPECT_EQ(h.hex_digest(), first);
}

TEST(Sha256, UpdateAfterDigestThrows) {
  oc::Sha256 h;
  h.update("abc");
  h.digest();
  EXPECT_THROW(h.update("more"), osprey::util::Error);
}

TEST(Sha256, SensitiveToSingleBitChange) {
  std::string a = "versioned-data";
  std::string b = a;
  b[0] ^= 1;
  EXPECT_NE(oc::Sha256::hash_hex(a), oc::Sha256::hash_hex(b));
}

namespace {

std::string hex(const std::array<std::uint8_t, 32>& digest) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : digest) {
    out += digits[b >> 4];
    out += digits[b & 0xf];
  }
  return out;
}

/// Deterministic bytes covering every value (xorshift32).
std::string pseudo_random_bytes(std::size_t n) {
  std::string out(n, '\0');
  std::uint32_t x = 0x9e3779b9u;
  for (char& c : out) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    c = static_cast<char>(x >> 24);
  }
  return out;
}

}  // namespace

// The portable kernel runs on every host; the hardware kernel only on
// CPUs with the SHA extensions. Sha256 uses whichever was picked, so
// both must agree on every length, every split of incremental updates
// and the known vectors.
TEST(Sha256, HardwareAndPortableKernelsAgree) {
  const std::vector<std::pair<std::string, std::string>> vectors = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"}};
  for (const auto& [message, expected] : vectors) {
    EXPECT_EQ(hex(ocd::digest_with(ocd::portable_blocks, message.data(),
                                   message.size())),
              expected);
  }

  // Incremental updates split at every point; Sha256 uses the picked
  // kernel, the reference is the portable one-shot digest.
  const std::string message = pseudo_random_bytes(200);
  const std::string reference =
      hex(ocd::digest_with(ocd::portable_blocks, message.data(), 200));
  for (std::size_t split = 0; split <= message.size(); ++split) {
    oc::Sha256 h;
    h.update(message.data(), split);
    h.update(message.data() + split, message.size() - split);
    EXPECT_EQ(hex(h.digest()), reference) << "split at " << split;
  }

  const ocd::BlockKernel hardware = ocd::hardware_blocks();
  if (hardware == nullptr) {
    GTEST_SKIP() << "CPU lacks the SHA extensions; only the portable "
                    "kernel was checked";
  }
  for (const auto& [message, expected] : vectors) {
    EXPECT_EQ(hex(ocd::digest_with(hardware, message.data(), message.size())),
              expected);
  }
  const std::string bytes = pseudo_random_bytes(1 << 20);
  for (std::size_t len = 0; len <= 1100; ++len) {
    EXPECT_EQ(ocd::digest_with(hardware, bytes.data(), len),
              ocd::digest_with(ocd::portable_blocks, bytes.data(), len))
        << "length " << len;
  }
  EXPECT_EQ(ocd::digest_with(hardware, bytes.data(), bytes.size()),
            ocd::digest_with(ocd::portable_blocks, bytes.data(), bytes.size()));
}

// hex_digest writes two lowercase digits per digest byte, as printf's
// %02x does.
TEST(Sha256, HexDigestMatchesPrintfReference) {
  std::uint64_t state = 0x5EED;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::string message(static_cast<std::size_t>(state >> 54), '\0');
    for (char& c : message) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      c = static_cast<char>(state >> 56);
    }
    oc::Sha256 bytes;
    bytes.update(message);
    std::string reference;
    for (std::uint8_t b : bytes.digest()) {
      char digits[3];
      std::snprintf(digits, sizeof(digits), "%02x", b);
      reference += digits;
    }
    oc::Sha256 h;
    h.update(message);
    ASSERT_EQ(h.hex_digest(), reference) << "input " << i;
    ASSERT_EQ(oc::Sha256::hash_hex(message), reference) << "input " << i;
  }
}
