#pragma once

/// \file harness.hpp
/// Shared Development Environment (SDE) multi-language harness registry.
///
/// In the paper, workflow tasks are "a Python code harness function ...
/// executes a Julia code R(t) estimation and then executes R code to
/// create the R(t) plots", and the GSA ME algorithm is R driving the
/// workflow logic. The SDE's job is routing and composing components
/// written in different languages. In this C++ reproduction each harness
/// is a registered C++ callable tagged with the language it stands in
/// for; the registry preserves the routing/composition/provenance
/// semantics (which-language-ran-what) that the SDE use case
/// demonstrates. See DESIGN.md "Substitutions".

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/value.hpp"

namespace osprey::core {

enum class Language { kPython, kR, kJulia, kCpp };

const char* language_name(Language lang);

using HarnessFn =
    std::function<osprey::util::Value(const osprey::util::Value&)>;

struct HarnessInfo {
  std::string name;
  Language language = Language::kCpp;
  std::string description;
  std::uint64_t invocations = 0;
};

/// Registry of named harnesses. A harness may invoke other harnesses
/// (composition), as the paper's Python->Julia->R chain does.
/// Registration happens before any invocation; after it, invoke() and
/// the readers are safe from any thread (offloaded compute work invokes
/// harnesses on pool threads).
class HarnessRegistry {
 public:
  void add(const std::string& name, Language language,
           const std::string& description, HarnessFn fn);

  bool has(const std::string& name) const;

  /// Invoke a harness; counts the invocation for provenance.
  osprey::util::Value invoke(const std::string& name,
                             const osprey::util::Value& args);

  /// A ComputeFn that routes to this registry's harness `name`
  /// (suitable for ComputeEndpoint::register_function). The registry
  /// must outlive the returned callable.
  HarnessFn as_compute_fn(const std::string& name);

  /// The harness's description and its invocation count so far.
  HarnessInfo info(const std::string& name) const;
  std::vector<HarnessInfo> list() const;
  std::uint64_t invocations_by(Language language) const;

 private:
  struct Entry {
    HarnessInfo info;  // `invocations` is filled from the counter below
    HarnessFn fn;
    std::atomic<std::uint64_t> invocations{0};
  };
  static HarnessInfo snapshot(const Entry& entry);
  std::map<std::string, Entry> entries_;
};

}  // namespace osprey::core
