#pragma once

/// \file analyzer.hpp
/// The osprey_lint whole-program analyzer. Files are added (from disk
/// by the CLI, in-memory by tests), then run() evaluates:
///
///   * the seven token-backed per-file rules inherited from v1 (rng,
///     wall-clock, raw-thread, relative-include, fabric-raw-throw,
///     adhoc-counter, serve-direct-origin) — now immune to the
///     string/comment false-positive class by construction;
///   * stack-wiring: the timer/transfer/flows services and the AERO
///     server are held by value only in src/fabric and
///     src/aero/{server,platform}.*, so the stack is wired once;
///   * test-registration (tests/test_*.cpp present in CMakeLists.txt);
///   * stale-suppression (a "grandfathered" allow() outliving its PR);
///   * layering: every src-to-src include edge must be declared in
///     tools/osprey_layers.txt, and the include graph must be acyclic;
///   * determinism-taint: no fabric/serve/obs/aero function may reach a
///     wall-clock / raw-RNG / raw-thread / getenv / unordered-iteration
///     sink through the (conservative) call graph, except through a
///     declared taint barrier. Findings carry the full call chain.
///
/// Suppression: a comment `osprey-lint: allow(<rule>)` covers its own
/// line and the next; test-registration allows apply file-wide;
/// stale-suppression cannot be suppressed.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/callgraph.hpp"
#include "lint/layers.hpp"
#include "lint/token.hpp"

namespace osprey::lint {

struct Finding {
  std::string file;  // root-relative, '/' separators
  std::size_t line = 0;  // 1-based; 0 = whole-file finding
  std::string rule;
  std::string message;
  /// For structural rules: the include / call chain, one
  /// "<file>:<line>  <what>" element per hop (empty for token rules).
  std::vector<std::string> chain;
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// Stable rule catalog (drives --list-rules and the docs).
const std::vector<RuleInfo>& rule_catalog();

struct AnalyzerOptions {
  bool layering = true;  // layering + include-cycle rules
  bool taint = true;     // determinism-taint rule
  /// Non-empty => incremental (--diff-base) mode: only report findings
  /// anchored in, or whose chain touches, one of these files.
  std::set<std::string> changed;
};

class Analyzer {
 public:
  explicit Analyzer(LayerConfig layers) : layers_(std::move(layers)) {}

  /// `path` must be root-relative with '/' separators (it doubles as
  /// the module key, e.g. "src/fabric/event_loop.hpp").
  void add_file(const std::string& path, const std::string& content);

  /// Content of tests/CMakeLists.txt for the test-registration rule
  /// (rule is skipped when never set).
  void set_test_registry(const std::string& cmake_content);

  std::vector<Finding> run(const AnalyzerOptions& opts);

  std::size_t file_count() const { return files_.size(); }

 private:
  struct Entry {
    LexedFile lexed;
    /// Lines covered by an allow() per rule (a mark covers its own line
    /// and the next).
    std::map<std::string, std::set<std::size_t>> allowed;
    bool any_allow(const std::string& rule) const {
      return allowed.count(rule) != 0;
    }
    bool allow_covers(const std::string& rule, std::size_t line) const {
      auto it = allowed.find(rule);
      return it != allowed.end() && it->second.count(line) != 0;
    }
  };

  void token_rules(const std::string& path, const Entry& e,
                   std::vector<Finding>& out) const;
  void structural_rules(const AnalyzerOptions& opts,
                        std::vector<Finding>& out) const;
  void taint_rule(std::vector<Finding>& out) const;
  void registration_rule(std::vector<Finding>& out) const;

  /// Resolve a quoted include to a scanned file (empty = external).
  std::string resolve_include(const std::string& includer,
                              const IncludeDirective& inc) const;

  LayerConfig layers_;
  std::map<std::string, Entry> files_;
  std::string test_cmake_;
  bool has_test_cmake_ = false;
};

/// "src/fabric/x.hpp" -> "fabric"; "tests/foo.cpp" -> "tests"; paths
/// with no recognized root map to "" (never layer-checked).
std::string module_of(const std::string& path);

/// Deterministic JSON report (the --json artifact CI uploads).
std::string findings_to_json(const std::vector<Finding>& findings,
                             std::size_t checked_files);

}  // namespace osprey::lint
