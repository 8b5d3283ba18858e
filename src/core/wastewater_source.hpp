#pragma once

/// \file wastewater_source.hpp
/// Adapter exposing the synthetic wastewater feed as an AERO DataSource:
/// what the Illinois Wastewater Surveillance System URL is to the real
/// deployment. The published CSV only changes on (weekly) publication
/// days, so AERO's checksum-based update detection sees exactly one new
/// version per publication. The CSV is rendered once per publication:
/// every poll until the next one returns the same buffer, which AERO
/// recognises without reading it.

#include <memory>

#include "aero/source.hpp"
#include "epi/wastewater.hpp"

namespace osprey::core {

class WastewaterSource final : public aero::DataSource {
 public:
  explicit WastewaterSource(std::shared_ptr<epi::WastewaterGenerator> gen);

  std::string url() const override;
  const std::shared_ptr<const std::string>& fetch(aero::SimTime now) override;

 private:
  std::shared_ptr<epi::WastewaterGenerator> gen_;
  /// The CSV of publication `buffer_day_` (nullptr before the first
  /// publication, day -1).
  std::shared_ptr<const std::string> buffer_;
  int buffer_day_ = -1;
};

}  // namespace osprey::core
