#pragma once

/// \file wastewater_source.hpp
/// Adapter exposing the synthetic wastewater feed as an AERO DataSource:
/// what the Illinois Wastewater Surveillance System URL is to the real
/// deployment. The published CSV only changes on (weekly) publication
/// days, so AERO's checksum-based update detection sees exactly one new
/// version per publication.

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
  /// The last fetch's buffer (nullptr before the first publication).
  std::shared_ptr<const std::string> buffer_;
};

}  // namespace osprey::core
