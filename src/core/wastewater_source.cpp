#include "core/wastewater_source.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/sim_time.hpp"

namespace osprey::core {

WastewaterSource::WastewaterSource(
    std::shared_ptr<epi::WastewaterGenerator> gen)
    : gen_(std::move(gen)) {
  OSPREY_REQUIRE(gen_ != nullptr, "null generator");
}

std::string WastewaterSource::url() const {
  // Mirrors the IWSS feed naming.
  std::string slug = gen_->plant().name;
  for (char& c : slug) {
    if (c == ' ' || c == '\'') c = '-';
  }
  return "https://iwss.sim/feeds/" + slug + ".csv";
}

const std::shared_ptr<const std::string>& WastewaterSource::fetch(
    aero::SimTime now) {
  int day = static_cast<int>(osprey::util::sim_day(now));
  day = std::min(day, gen_->config().days - 1);
  if (gen_->last_publication_day(day) < 0) {
    buffer_ = nullptr;
  } else {
    buffer_ = std::make_shared<const std::string>(gen_->published_csv(day));
  }
  return buffer_;
}

}  // namespace osprey::core
