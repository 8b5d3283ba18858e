#pragma once

/// Bit-pattern pins for deterministic numerical runs. `expect_bits`
/// compares with memcmp, so -0.0 vs 0.0 and last-ulp drift both fail,
/// and the failure message lists the actual values as hex-float
/// literals ready to paste back as the new pin. `format_rows` renders
/// rows of doubles as `%.17g` text for tests/artifact_dump.hpp.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/string_util.hpp"

namespace osprey::testing {

inline void expect_bits(const std::vector<double>& actual,
                        const std::vector<double>& expected,
                        const std::string& what) {
  std::string listing;
  for (double v : actual) listing += osprey::util::format("%a, ", v);
  ASSERT_EQ(actual.size(), expected.size()) << what << " = {" << listing
                                            << "}";
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        actual.size() * sizeof(double)),
            0)
      << what << " = {" << listing << "}";
}

/// One line per row, values separated by single spaces.
inline std::string format_rows(const std::vector<std::vector<double>>& rows) {
  std::string out;
  for (const std::vector<double>& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out += osprey::util::format(i == 0 ? "%.17g" : " %.17g", row[i]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace osprey::testing
