#pragma once

/// Optional artifact dump for the seed sweeps. When the environment
/// variable OSPREY_ARTIFACT_DIR names a directory, a seed case writes
/// each of its artifacts to `$OSPREY_ARTIFACT_DIR/<prefix>.<suffix>`, so
/// the sweeps of two builds can be diffed file by file
/// (scripts/parity.sh). Unset or empty: nothing is written.

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "util/file_io.hpp"

namespace osprey::testing {

/// (file suffix, bytes) pairs, e.g. {"incidents.txt", log}.
using Artifacts = std::vector<std::pair<std::string, std::string>>;

inline void dump_artifacts(const std::string& prefix,
                           const Artifacts& artifacts) {
  const char* dir = std::getenv("OSPREY_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  for (const auto& [suffix, bytes] : artifacts) {
    osprey::util::write_text_file(
        std::string(dir) + "/" + prefix + "." + suffix, bytes);
  }
}

}  // namespace osprey::testing
