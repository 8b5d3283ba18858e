#include "core/harness.hpp"

#include "util/error.hpp"

namespace osprey::core {

const char* language_name(Language lang) {
  switch (lang) {
    case Language::kPython: return "python";
    case Language::kR: return "R";
    case Language::kJulia: return "julia";
    case Language::kCpp: return "c++";
  }
  return "?";
}

void HarnessRegistry::add(const std::string& name, Language language,
                          const std::string& description, HarnessFn fn) {
  OSPREY_REQUIRE(static_cast<bool>(fn), "null harness function");
  OSPREY_REQUIRE(entries_.count(name) == 0,
                 "harness already registered: " + name);
  Entry& entry = entries_[name];
  entry.info.name = name;
  entry.info.language = language;
  entry.info.description = description;
  entry.fn = std::move(fn);
}

bool HarnessRegistry::has(const std::string& name) const {
  return entries_.count(name) > 0;
}

osprey::util::Value HarnessRegistry::invoke(const std::string& name,
                                            const osprey::util::Value& args) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw osprey::util::NotFound("no such harness: " + name);
  }
  it->second.invocations.fetch_add(1, std::memory_order_relaxed);
  return it->second.fn(args);
}

HarnessFn HarnessRegistry::as_compute_fn(const std::string& name) {
  OSPREY_REQUIRE(has(name), "no such harness: " + name);
  return [this, name](const osprey::util::Value& args) {
    return invoke(name, args);
  };
}

HarnessInfo HarnessRegistry::snapshot(const Entry& entry) {
  HarnessInfo info = entry.info;
  info.invocations = entry.invocations.load(std::memory_order_relaxed);
  return info;
}

HarnessInfo HarnessRegistry::info(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw osprey::util::NotFound("no such harness: " + name);
  }
  return snapshot(it->second);
}

std::vector<HarnessInfo> HarnessRegistry::list() const {
  std::vector<HarnessInfo> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    (void)name;
    out.push_back(snapshot(entry));
  }
  return out;
}

std::uint64_t HarnessRegistry::invocations_by(Language language) const {
  std::uint64_t n = 0;
  for (const auto& [name, entry] : entries_) {
    (void)name;
    if (entry.info.language == language) {
      n += entry.invocations.load(std::memory_order_relaxed);
    }
  }
  return n;
}

}  // namespace osprey::core
