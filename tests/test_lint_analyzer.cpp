// Unit tests for the osprey_lint whole-program analyzer over in-memory
// fixtures: tokenizer edge cases (the comment/raw-string false-positive
// regression), layering and cycle detection, determinism-taint call
// chains, and --diff-base subsetting.

#include "lint/analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "lint/layers.hpp"
#include "lint/lexer.hpp"

namespace ol = osprey::lint;

namespace {

ol::LayerConfig test_layers() {
  std::vector<std::string> errors;
  ol::LayerConfig config = ol::parse_layers(
      "layer util =\n"
      "layer obs = util\n"
      "layer fabric = obs util\n"
      "layer serve = fabric obs util\n"
      "taint-entry fabric\n"
      "taint-entry serve\n"
      "taint-barrier src/util/clock.\n",
      errors);
  EXPECT_TRUE(errors.empty());
  return config;
}

std::vector<ol::Finding> run_rule(ol::Analyzer& a, const std::string& rule,
                                  ol::AnalyzerOptions opts = {}) {
  std::vector<ol::Finding> found;
  for (ol::Finding& f : a.run(opts)) {
    if (f.rule == rule) found.push_back(std::move(f));
  }
  return found;
}

// --- Lexer ----------------------------------------------------------------

TEST(LintLexer, TokensSkipCommentsAndStrings) {
  ol::LexedFile lexed = ol::lex(
      "int x = 0; // rand()\n"
      "/* std::thread t; */\n"
      "const char* s = \"srand(7)\";\n");
  for (const ol::Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "thread");
    EXPECT_NE(t.text, "srand");
  }
}

TEST(LintLexer, RawStringWithCustomDelimiter) {
  ol::LexedFile lexed = ol::lex(
      "auto s = R\"ab(rand() \")\" still inside)ab\";\n"
      "int after = 1;\n");
  bool saw_after = false;
  for (const ol::Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "rand");
    if (t.text == "after") saw_after = true;
  }
  EXPECT_TRUE(saw_after);
}

TEST(LintLexer, IncludeDirectivesCaptured) {
  ol::LexedFile lexed = ol::lex(
      "#include \"util/log.hpp\"\n"
      "#include <vector>\n");
  ASSERT_EQ(lexed.includes.size(), 2u);
  EXPECT_EQ(lexed.includes[0].path, "util/log.hpp");
  EXPECT_FALSE(lexed.includes[0].angled);
  EXPECT_TRUE(lexed.includes[1].angled);
}

TEST(LintLexer, AllowMarksParsed) {
  ol::LexedFile lexed = ol::lex(
      "// osprey-lint: allow(rng) reason\n"
      "// osprey-lint: allow(adhoc-counter) grandfathered pre-obs\n");
  ASSERT_EQ(lexed.allows.size(), 2u);
  EXPECT_EQ(lexed.allows[0].rule, "rng");
  EXPECT_FALSE(lexed.allows[0].grandfathered);
  EXPECT_EQ(lexed.allows[1].rule, "adhoc-counter");
  EXPECT_TRUE(lexed.allows[1].grandfathered);
}

// --- Token rules ----------------------------------------------------------

// Regression: v1 flagged `#include "../x.hpp"` quoted inside block
// comments and raw strings. The lexer only records real directives.
TEST(LintAnalyzer, RelativeIncludeIgnoresCommentsAndRawStrings) {
  ol::Analyzer a(test_layers());
  a.add_file("src/util/doc.hpp",
             "/* example of what NOT to write:\n"
             "#include \"../fabric/event_loop.hpp\"\n"
             "*/\n"
             "const char* snippet = R\"(\n"
             "#include \"../util/log.hpp\"\n"
             ")\";\n");
  EXPECT_TRUE(run_rule(a, "relative-include").empty());

  a.add_file("src/util/bad.hpp", "#include \"../util/log.hpp\"\n");
  std::vector<ol::Finding> found = run_rule(a, "relative-include");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].file, "src/util/bad.hpp");
  EXPECT_EQ(found[0].line, 1u);
}

TEST(LintAnalyzer, RngRuleAndAllowCoverage) {
  ol::Analyzer a(test_layers());
  a.add_file("src/util/a.cpp",
             "int f() { return rand(); }\n"
             "// osprey-lint: allow(rng) test fixture\n"
             "int g() { return rand(); }\n");
  std::vector<ol::Finding> found = run_rule(a, "rng");
  ASSERT_EQ(found.size(), 1u);  // line 3 is covered by the allow
  EXPECT_EQ(found[0].line, 1u);
}

TEST(LintAnalyzer, RngRuleFlagsHashConstantOutsideHashHeader) {
  ol::Analyzer a(test_layers());
  // The one seeded-hash primitive may spell the constant; a copy may not,
  // in any spelling of the literal.
  a.add_file("src/util/hash.hpp",
             "constexpr unsigned long long k = 0x9e3779b97f4a7c15ULL;\n");
  a.add_file("tests/test_oracle.cpp",  // an independent test oracle
             "unsigned long long k = 0x9e3779b97f4a7c15ULL;\n");
  a.add_file("src/serve/copy.cpp",
             "// 0x9e3779b97f4a7c15 in a comment is fine\n"
             "unsigned long long mix(unsigned long long z) {\n"
             "  return z + 0x9E3779B97F4A7C15ull;\n"
             "}\n"
             "unsigned long long k = 0x9e37'79b9'7f4a'7c15;\n"
             "unsigned long long other = 0x9e3779b97f4a7c16ULL;\n");
  std::vector<ol::Finding> found = run_rule(a, "rng");
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].file, "src/serve/copy.cpp");
  EXPECT_EQ(found[0].line, 3u);
  EXPECT_EQ(found[1].line, 5u);
}

TEST(LintAnalyzer, AdhocCounterInFabric) {
  ol::Analyzer a(test_layers());
  a.add_file("src/fabric/svc.hpp",
             "class Svc {\n"
             "  std::size_t completed_ = 0;\n"
             "  std::size_t limit_ = 0;\n"  // not a counter name
             "};\n");
  std::vector<ol::Finding> found = run_rule(a, "adhoc-counter");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].line, 2u);
}

TEST(LintAnalyzer, WalBypassFlagsDirectMetadataMutation) {
  ol::Analyzer a(test_layers());
  a.add_file("src/aero/db.cpp",
             "void f() { runs_.push_back(r); }\n"
             "void g() { objects_.emplace(k, v); }\n"
             "int h() { return runs_.size(); }\n"      // read: passes
             "auto i() { return objects_.find(k); }\n"  // read: passes
             "// osprey-lint: allow(wal-bypass) sanctioned apply() site\n"
             "void j() { runs_.clear(); }\n");
  std::vector<ol::Finding> found = run_rule(a, "wal-bypass");
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].line, 1u);
  EXPECT_EQ(found[1].line, 2u);
}

TEST(LintAnalyzer, WalBypassScopedToAeroModule) {
  ol::Analyzer a(test_layers());
  // Identical token stream outside src/aero — other modules may name
  // their own members runs_/objects_ without implying a WAL contract.
  a.add_file("src/fabric/svc.cpp", "void f() { runs_.push_back(r); }\n");
  EXPECT_TRUE(run_rule(a, "wal-bypass").empty());
}

TEST(LintAnalyzer, ShardIsolationFlagsOrchestrationState) {
  ol::Analyzer a(test_layers());
  a.add_file("src/shard/fabric.cpp",
             "void f(aero::AeroServer& s) { s.serve_latest(u); }\n"
             "aero::MetadataDb* db();\n"
             "fabric::FlowsService* flows();\n"
             "int envelope_count();\n");
  std::vector<ol::Finding> found = run_rule(a, "shard-isolation");
  // Line 1 carries two references (AeroServer + serve_latest).
  ASSERT_EQ(found.size(), 4u);
  EXPECT_EQ(found[0].line, 1u);
  EXPECT_EQ(found[1].line, 1u);
  EXPECT_EQ(found[2].line, 2u);
  EXPECT_EQ(found[3].line, 3u);
}

TEST(LintAnalyzer, ShardIsolationExemptsPartitionAndHonorsAllow) {
  ol::Analyzer a(test_layers());
  // partition.* is the sanctioned owner of per-partition state.
  a.add_file("src/shard/partition.cpp",
             "void f(aero::AeroServer& s) { s.serve_latest(u); }\n");
  a.add_file("src/shard/partition.hpp", "aero::MetadataDb* db();\n");
  // Other modules may mention the types freely.
  a.add_file("src/serve/front.cpp", "aero::AeroServer* origin();\n");
  a.add_file("src/shard/mailbox.cpp",
             "// osprey-lint: allow(shard-isolation) test fixture\n"
             "aero::MetadataDb* sanctioned();\n");
  EXPECT_TRUE(run_rule(a, "shard-isolation").empty());
}

TEST(LintAnalyzer, StackWiringFlagsByValueServiceMember) {
  ol::Analyzer a(test_layers());
  a.add_file("src/shard/partition.hpp",
             "class ShardPartition {\n"
             "  fabric::EventLoop loop_;\n"
             "  fabric::TimerService timers_;\n"
             "  aero::AeroServer server_;\n"
             "};\n");
  a.add_file("src/core/wiring.cpp",
             "void f() { fabric::FlowsService flows(loop, auth); }\n");
  std::vector<ol::Finding> found = run_rule(a, "stack-wiring");
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[0].file, "src/core/wiring.cpp");
  EXPECT_EQ(found[0].line, 1u);
  EXPECT_EQ(found[1].file, "src/shard/partition.hpp");
  EXPECT_EQ(found[1].line, 3u);
  EXPECT_EQ(found[2].line, 4u);
}

TEST(LintAnalyzer, StackWiringPassesReferencesAndDefinitions) {
  ol::Analyzer a(test_layers());
  // A reference accessor, a pointer and an owning smart pointer pass.
  a.add_file("src/shard/partition.hpp",
             "class ShardPartition {\n"
             " public:\n"
             "  const fabric::TransferService& transfers() const;\n"
             "  aero::AeroServer* server_;\n"
             "  std::unique_ptr<aero::AeroServer> owned_;\n"
             "};\n");
  // A class definition, even outside the owners, declares no service.
  a.add_file("src/serve/stub.hpp",
             "class TimerService;\n"
             "class AeroServer {\n"
             "  AeroServer(const AeroServer&) = delete;\n"
             "};\n");
  // The fabric and the stack's two owners hold services by value.
  a.add_file("src/fabric/flows.cpp", "TimerService timers_;\n");
  a.add_file("src/aero/platform.hpp", "AeroServer aero_;\n");
  a.add_file("src/aero/server.hpp", "TransferService& transfers_;\n");
  // Outside src/ (tests, benches, examples) anything goes.
  a.add_file("tests/test_x.cpp", "aero::AeroServer server(loop, auth);\n");
  EXPECT_TRUE(run_rule(a, "stack-wiring").empty());
}

TEST(LintAnalyzer, StaleSuppressionFiresAndCannotBeSuppressed) {
  ol::Analyzer a(test_layers());
  a.add_file("src/fabric/old.hpp",
             "class Old {\n"
             "  // osprey-lint: allow(adhoc-counter) grandfathered legacy\n"
             "  std::size_t completed_ = 0;\n"
             "};\n");
  // The grandfathered allow still suppresses adhoc-counter itself...
  EXPECT_TRUE(run_rule(a, "adhoc-counter").empty());
  // ...but is itself reported, and stays reported even if someone tries
  // to allow(stale-suppression) it.
  ASSERT_EQ(run_rule(a, "stale-suppression").size(), 1u);
  a.add_file("src/fabric/old.hpp",
             "class Old {\n"
             "  // osprey-lint: allow(stale-suppression)\n"
             "  // osprey-lint: allow(adhoc-counter) grandfathered legacy\n"
             "  std::size_t completed_ = 0;\n"
             "};\n");
  EXPECT_EQ(run_rule(a, "stale-suppression").size(), 1u);
}

TEST(LintAnalyzer, TestRegistration) {
  ol::Analyzer a(test_layers());
  a.add_file("tests/test_registered.cpp", "int x;\n");
  a.add_file("tests/test_orphan.cpp", "int y;\n");
  a.set_test_registry("add_executable(t tests/test_registered.cpp)\n");
  std::vector<ol::Finding> found = run_rule(a, "test-registration");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].file, "tests/test_orphan.cpp");
}

// --- Layering -------------------------------------------------------------

TEST(LintAnalyzer, LayeringRejectsUndeclaredEdge) {
  ol::Analyzer a(test_layers());
  a.add_file("src/obs/metrics.hpp", "#include \"fabric/loop.hpp\"\n");
  a.add_file("src/fabric/loop.hpp", "int x;\n");
  std::vector<ol::Finding> found = run_rule(a, "layering");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].file, "src/obs/metrics.hpp");
  EXPECT_NE(found[0].message.find("'obs'"), std::string::npos);
  EXPECT_NE(found[0].message.find("'fabric'"), std::string::npos);
}

TEST(LintAnalyzer, LayeringAcceptsDeclaredEdgeAndHonorsAllow) {
  ol::Analyzer a(test_layers());
  a.add_file("src/fabric/loop.hpp", "#include \"obs/trace.hpp\"\n");
  a.add_file("src/obs/trace.hpp", "int x;\n");
  EXPECT_TRUE(run_rule(a, "layering").empty());

  a.add_file("src/obs/bridge.hpp",
             "// osprey-lint: allow(layering) deliberate adapter\n"
             "#include \"fabric/loop.hpp\"\n");
  EXPECT_TRUE(run_rule(a, "layering").empty());
}

TEST(LintAnalyzer, IncludeCycleReportedWithChain) {
  ol::Analyzer a(test_layers());
  a.add_file("src/util/a.hpp", "#include \"util/b.hpp\"\n");
  a.add_file("src/util/b.hpp", "#include \"util/c.hpp\"\n");
  a.add_file("src/util/c.hpp", "#include \"util/a.hpp\"\n");
  std::vector<ol::Finding> found = run_rule(a, "include-cycle");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].chain.size(), 3u);
  EXPECT_NE(found[0].chain[0].find("util/"), std::string::npos);
}

TEST(LintAnalyzer, NoLayeringOptionSkipsStructuralRules) {
  ol::Analyzer a(test_layers());
  a.add_file("src/obs/metrics.hpp", "#include \"fabric/loop.hpp\"\n");
  a.add_file("src/fabric/loop.hpp", "#include \"obs/metrics.hpp\"\n");
  ol::AnalyzerOptions opts;
  opts.layering = false;
  EXPECT_TRUE(run_rule(a, "layering", opts).empty());
  EXPECT_TRUE(run_rule(a, "include-cycle", opts).empty());
}

// --- Determinism taint ----------------------------------------------------

// fabric entry -> util helper -> getenv seed, full chain reported.
TEST(LintAnalyzer, TaintChainAcrossModules) {
  ol::Analyzer a(test_layers());
  a.add_file("src/util/env.cpp",
             "namespace osprey::util {\n"
             "int worker_count() { return getenv(\"N\") ? 2 : 1; }\n"
             "}\n");
  a.add_file("src/fabric/svc.cpp",
             "namespace osprey::fabric {\n"
             "int helper() { return osprey::util::worker_count(); }\n"
             "int run_service() { return helper(); }\n"
             "}\n");
  std::vector<ol::Finding> found = run_rule(a, "determinism-taint");
  // helper and run_service are both tainted fabric entry points.
  ASSERT_EQ(found.size(), 2u);
  const ol::Finding* run = nullptr;
  for (const ol::Finding& f : found) {
    if (f.message.find("run_service") != std::string::npos) run = &f;
  }
  ASSERT_NE(run, nullptr);
  // Chain: run_service -> helper -> worker_count -> getenv sink.
  ASSERT_EQ(run->chain.size(), 4u);
  EXPECT_NE(run->chain[0].find("run_service"), std::string::npos);
  EXPECT_NE(run->chain[1].find("helper"), std::string::npos);
  EXPECT_NE(run->chain[2].find("worker_count"), std::string::npos);
  EXPECT_NE(run->chain[3].find("getenv"), std::string::npos);
  EXPECT_NE(run->message.find("env"), std::string::npos);
}

TEST(LintAnalyzer, TaintStopsAtDeclaredBarrier) {
  ol::Analyzer a(test_layers());
  // src/util/clock. is a taint-barrier in test_layers().
  a.add_file("src/util/clock.cpp",
             "namespace osprey::util {\n"
             "long wall_now() { return std::chrono::steady_clock::now()\n"
             "    .time_since_epoch().count(); }\n"
             "}\n");
  a.add_file("src/fabric/svc.cpp",
             "namespace osprey::fabric {\n"
             "long stamp() { return osprey::util::wall_now(); }\n"
             "}\n");
  EXPECT_TRUE(run_rule(a, "determinism-taint").empty());
}

TEST(LintAnalyzer, TaintSeedsUnorderedIterationAndThreads) {
  ol::Analyzer a(test_layers());
  a.add_file("src/serve/svc.cpp",
             "namespace osprey::serve {\n"
             "void spin() { std::thread t([]{}); t.join(); }\n"
             "int sum(const std::unordered_map<int,int>& m) {\n"
             "  int s = 0;\n"
             "  for (const auto& kv : m) s += kv.second;\n"
             "  return s;\n"
             "}\n"
             "}\n");
  std::vector<ol::Finding> found = run_rule(a, "determinism-taint");
  ASSERT_EQ(found.size(), 2u);
  bool saw_thread = false, saw_unordered = false;
  for (const ol::Finding& f : found) {
    if (f.message.find("thread") != std::string::npos) saw_thread = true;
    if (f.message.find("unordered") != std::string::npos) {
      saw_unordered = true;
    }
  }
  EXPECT_TRUE(saw_thread);
  EXPECT_TRUE(saw_unordered);
}

TEST(LintAnalyzer, TaintOnlyReportsEntryModules) {
  ol::Analyzer a(test_layers());
  // util is not a taint-entry: a seed there alone reports nothing.
  a.add_file("src/util/misc.cpp",
             "namespace osprey::util {\n"
             "int jitter() { return rand(); }\n"
             "}\n");
  EXPECT_TRUE(run_rule(a, "determinism-taint").empty());
}

// --- --diff-base subsetting -----------------------------------------------

TEST(LintAnalyzer, DiffBaseKeepsAnchorsAndChainTouches) {
  ol::Analyzer a(test_layers());
  a.add_file("src/util/env.cpp",
             "namespace osprey::util {\n"
             "int worker_count() { return getenv(\"N\") ? 2 : 1; }\n"
             "}\n");
  a.add_file("src/fabric/svc.cpp",
             "namespace osprey::fabric {\n"
             "int run_service() { return osprey::util::worker_count(); }\n"
             "}\n");
  a.add_file("src/fabric/other.cpp",
             "namespace osprey::fabric {\n"
             "int unrelated() { return rand(); }\n"
             "}\n");

  // Only the util helper changed: the taint finding anchored in
  // svc.cpp survives (its chain passes through env.cpp); the rng
  // finding in other.cpp is filtered out.
  ol::AnalyzerOptions opts;
  opts.changed = {"src/util/env.cpp"};
  std::vector<ol::Finding> found = a.run(opts);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].rule, "determinism-taint");
  EXPECT_EQ(found[0].file, "src/fabric/svc.cpp");

  // A change set touching nothing relevant reports nothing.
  opts.changed = {"README.md"};
  EXPECT_TRUE(a.run(opts).empty());
}

// --- Call-graph extraction ------------------------------------------------

TEST(LintCallgraph, QualifiedNamesAndCallSites) {
  ol::LexedFile lexed = ol::lex(
      "namespace osprey::fabric {\n"
      "class EventLoop {\n"
      "  bool fire_next();\n"
      "};\n"
      "bool EventLoop::fire_next() { helper(7); return true; }\n"
      "std::size_t run_all() { while (fire_next()) {} return 0; }\n"
      "}\n");
  std::vector<ol::FunctionDef> defs =
      ol::extract_functions("src/fabric/event_loop.cpp", lexed);
  ASSERT_EQ(defs.size(), 2u);
  EXPECT_EQ(defs[0].qualified, "osprey::fabric::EventLoop::fire_next");
  EXPECT_EQ(defs[1].qualified, "osprey::fabric::run_all");
  ASSERT_EQ(defs[0].calls.size(), 1u);
  EXPECT_EQ(defs[0].calls[0].name, "helper");
  ASSERT_EQ(defs[1].calls.size(), 1u);
  EXPECT_EQ(defs[1].calls[0].name, "fire_next");
}

TEST(LintLayers, ParserRejectsCyclesAndUndeclaredDeps) {
  std::vector<std::string> errors;
  ol::parse_layers("layer a = b\nlayer b = a\n", errors);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("cyclic"), std::string::npos);

  errors.clear();
  ol::parse_layers("layer a = ghost\n", errors);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("undeclared"), std::string::npos);
}

}  // namespace
