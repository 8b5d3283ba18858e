#pragma once

/// \file source.hpp
/// Upstream data sources for AERO ingestion flows. A DataSource stands
/// in for "a URL from which to retrieve the data" — here, the Illinois
/// Wastewater Surveillance System feed. Sources are polled; AERO
/// detects updates by checksum change.
///
/// A fetch hands out a reference to a shared, immutable buffer, valid
/// until the next fetch on that source. A source that returns the buffer
/// it returned last time tells AERO the content is unchanged without
/// AERO reading a byte of it, or touching the buffer's reference count.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/sim_time.hpp"

namespace osprey::aero {

using osprey::util::SimTime;

/// Abstract upstream feed.
class DataSource {
 public:
  virtual ~DataSource() = default;

  /// The source's URL (identification/provenance only).
  virtual std::string url() const = 0;

  /// Current upstream content at virtual time `now`, or nullptr when
  /// the source has published nothing yet. The reference stays valid
  /// until the next fetch on this source; keep a copy to hold it longer.
  virtual const std::shared_ptr<const std::string>& fetch(SimTime now) = 0;
};

/// Test/demo source publishing pre-scripted payloads at fixed times.
class ScriptedSource final : public DataSource {
 public:
  ScriptedSource(std::string url,
                 std::vector<std::pair<SimTime, std::string>> timeline);

  std::string url() const override { return url_; }
  const std::shared_ptr<const std::string>& fetch(SimTime now) override;

  std::size_t fetch_count() const { return fetches_; }

 private:
  std::string url_;
  std::vector<SimTime> times_;  // sorted
  std::vector<std::shared_ptr<const std::string>> payloads_;  // by times_
  std::shared_ptr<const std::string> none_;  // before the first entry
  std::size_t fetches_ = 0;
};

}  // namespace osprey::aero
