#include <gtest/gtest.h>

#include <set>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/sim_time.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/uuid.hpp"

namespace ou = osprey::util;

TEST(StringUtil, SplitKeepsEmptyFields) {
  EXPECT_EQ(ou::split("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(ou::split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtil, JoinInvertsSplit) {
  std::vector<std::string> pieces{"x", "y", "z"};
  EXPECT_EQ(ou::split(ou::join(pieces, "-"), '-'), pieces);
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(ou::trim("  hi \t\n"), "hi");
  EXPECT_EQ(ou::trim(""), "");
  EXPECT_EQ(ou::trim("   "), "");
  EXPECT_EQ(ou::trim("a b"), "a b");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(ou::starts_with("prefix-rest", "prefix"));
  EXPECT_FALSE(ou::starts_with("pre", "prefix"));
}

TEST(StringUtil, Format) {
  EXPECT_EQ(ou::format("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(ou::format("%s", ""), "");
}

// The seeded hashes are part of every replayable artifact: pin their bits
// (splitmix64's first two outputs from seed 0; FNV-1a's offset basis and
// its value for "a").
static_assert(ou::mix64(0) == 0xe220a8397b1dcdafULL);
static_assert(ou::mix64(ou::kGoldenGamma) == 0x6e789e6aa1b965f4ULL);
static_assert(ou::fnv1a("") == 0xcbf29ce484222325ULL);
static_assert(ou::fnv1a("a") == 0xaf63dc4c8601ec8cULL);
static_assert(ou::unit_double(0) == 0.0);
static_assert(ou::unit_double(~std::uint64_t{0}) == 1.0 - 0x1.0p-53);

TEST(Hash, Fnv1aIsStableAndKeyed) {
  EXPECT_EQ(ou::fnv1a("ingest-plant-a"), ou::fnv1a("ingest-plant-a"));
  EXPECT_NE(ou::fnv1a("ingest-plant-a"), ou::fnv1a("ingest-plant-b"));
  EXPECT_NE(ou::fnv1a(""), ou::fnv1a("x"));
  // Bytes, not chars: a high-bit byte hashes as unsigned.
  EXPECT_EQ(ou::fnv1a("\xff"),
            (0xcbf29ce484222325ULL ^ 0xffULL) * 0x100000001b3ULL);
}

TEST(Hash, UnitDoubleKeepsTheTop53Bits) {
  EXPECT_EQ(ou::unit_double(std::uint64_t{1} << 63), 0.5);
  EXPECT_EQ(ou::unit_double((std::uint64_t{1} << 11) - 1), 0.0);
}

TEST(Uuid, CanonicalShape) {
  ou::UuidFactory factory(1);
  std::string u = factory.next();
  EXPECT_TRUE(ou::looks_like_uuid(u)) << u;
  EXPECT_EQ(u[14], '4');  // version nibble
}

TEST(Uuid, DeterministicPerSeed) {
  ou::UuidFactory a(99), b(99), c(100);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Uuid, NoCollisionsInSequence) {
  ou::UuidFactory factory(7);
  std::set<std::string> seen;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(factory.next()).second);
  }
}

TEST(Uuid, LooksLikeUuidRejectsBadShapes) {
  EXPECT_FALSE(ou::looks_like_uuid(""));
  EXPECT_FALSE(ou::looks_like_uuid("not-a-uuid"));
  EXPECT_FALSE(ou::looks_like_uuid(
      "3f2a9c1e-7b4d-4e8a-9c3f-1a2b3c4d5e6g"));  // 'g' not hex
  EXPECT_FALSE(ou::looks_like_uuid(
      "3f2a9c1e07b4d-4e8a-9c3f-1a2b3c4d5e6f"));  // dash misplaced
}

TEST(SimTime, Formatting) {
  ou::SimTime t = 3 * ou::kDay + 7 * ou::kHour + 30 * ou::kMinute +
                  15 * ou::kSecond + 250;
  EXPECT_EQ(ou::format_sim_time(t), "d003 07:30:15.250");
  EXPECT_EQ(ou::sim_day(t), 3);
}

TEST(SimTime, DurationFormatting) {
  EXPECT_EQ(ou::format_duration(500), "500ms");
  EXPECT_EQ(ou::format_duration(45 * ou::kSecond), "45.0s");
  EXPECT_EQ(ou::format_duration(90 * ou::kSecond), "1.5m");
  EXPECT_EQ(ou::format_duration(3 * ou::kHour), "3.0h");
  EXPECT_EQ(ou::format_duration(36 * ou::kHour), "1.5d");
}

TEST(TextTable, AlignsColumns) {
  ou::TextTable t({"name", "n"});
  t.add_row({"short", "1"});
  t.add_row({"a-much-longer-name", "22"});
  std::string rendered = t.render();
  EXPECT_NE(rendered.find("a-much-longer-name  22"), std::string::npos);
  EXPECT_NE(rendered.find("----"), std::string::npos);
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(ou::TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(ou::TextTable::num(-0.5, 3), "-0.500");
}

TEST(TextTable, RowWidthMismatchThrows) {
  ou::TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), osprey::util::InvalidArgument);
}

// --- pluggable log sink (util/log.hpp) ---

#include "util/log.hpp"

TEST(LogSink, SwapCapturesLinesAndRestoreReturnsPrevious) {
  ou::LogLevel old_level = ou::log_level();
  ou::set_log_level(ou::LogLevel::kInfo);
  std::vector<std::string> captured;
  ou::LogSink previous = ou::set_log_sink(
      [&captured](ou::LogLevel level, const std::string& component,
                  const std::string& message) {
        captured.push_back(ou::level_name(level) + std::string(":") +
                           component + ":" + message);
      });
  OSPREY_LOG_INFO("test", "hello " << 42);
  OSPREY_LOG_WARN("other", "warned");
  // Restore the default stderr sink; the previous sink comes back so
  // callers can re-install an outer sink they displaced.
  ou::LogSink displaced = ou::set_log_sink(std::move(previous));
  EXPECT_TRUE(static_cast<bool>(displaced));
  OSPREY_LOG_INFO("test", "not captured");
  ou::set_log_level(old_level);

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], "INFO:test:hello 42");
  EXPECT_EQ(captured[1], "WARN:other:warned");
}
