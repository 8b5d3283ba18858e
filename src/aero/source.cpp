#include "aero/source.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace osprey::aero {

ScriptedSource::ScriptedSource(
    std::string url, std::vector<std::pair<SimTime, std::string>> timeline)
    : url_(std::move(url)) {
  OSPREY_REQUIRE(std::is_sorted(timeline.begin(), timeline.end(),
                                [](const auto& a, const auto& b) {
                                  return a.first < b.first;
                                }),
                 "scripted timeline must be sorted by time");
  times_.reserve(timeline.size());
  payloads_.reserve(timeline.size());
  for (auto& [t, payload] : timeline) {
    times_.push_back(t);
    payloads_.push_back(
        std::make_shared<const std::string>(std::move(payload)));
  }
}

const std::shared_ptr<const std::string>& ScriptedSource::fetch(
    SimTime now) {
  ++fetches_;
  // The latest entry published at or before `now`.
  auto it = std::upper_bound(times_.begin(), times_.end(), now);
  if (it == times_.begin()) return none_;
  return payloads_[static_cast<std::size_t>(it - times_.begin()) - 1];
}

}  // namespace osprey::aero
