/// Figure 1 reproduction: the automated multi-source wastewater R(t)
/// workflow. Runs the full event-driven pipeline (4 ingestion flows ->
/// 4 R(t) analysis flows -> 1 ALL-triggered aggregation) over 120
/// virtual days and prints:
///   - the realized flow-trigger DAG (which flow fired on which update),
///   - per-task endpoint placement and virtual timing (the login-node vs
///     PBS-compute split of §2.2),
///   - metadata query/update traffic between flows and the AERO server
///     (the solid arrows of Figure 1),
///   - storage/transfer traffic (the "bring your own storage" badges).

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>

#include "aero/wal.hpp"
#include "core/usecase_ww.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "util/durable_fs.hpp"
#include "util/file_io.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/value.hpp"

using namespace osprey;

namespace {

// One timed 120-day workflow pass, optionally with the metadata WAL
// enabled over `fs` (DESIGN.md §4f). Wall-clock timing is legal here —
// bench/ is outside the simulated layers the wall-clock lint guards.
struct WalPassResult {
  double wall_ms = 0.0;
  std::string db_json;       // full metadata snapshot, for byte compares
  std::uint64_t appends = 0;  // WAL records written (0 when WAL off)
  std::uint64_t fsyncs = 0;   // durability barriers hit on fs
  double virtual_makespan_ms = 0.0;
};

WalPassResult run_workflow_pass(util::DurableFs* fs,
                                const aero::WalOptions& options) {
  core::OspreyPlatform platform;
  core::WwUseCaseConfig config;
  config.horizon_days = 120;
  config.seed = 42;
  core::WastewaterUseCase usecase(platform, config);
  if (fs != nullptr) {
    platform.aero().enable_durability(*fs, options);
  }
  auto t0 = std::chrono::steady_clock::now();
  usecase.build();
  usecase.run_to_end();
  auto t1 = std::chrono::steady_clock::now();
  WalPassResult out;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.db_json = platform.aero().db().to_json().to_json();
  if (fs != nullptr) {
    out.appends = platform.aero().wal()->next_lsn() - 1;
    out.fsyncs = fs->sync_count();
  }
  obs::CriticalPathReport report = obs::analyze(platform.tracer().snapshot());
  out.virtual_makespan_ms = static_cast<double>(report.makespan_ns) / 1e6;
  return out;
}

}  // namespace

int main() {
  util::set_log_level(util::LogLevel::kError);
  std::printf("%s", util::banner(
      "Figure 1 — automated multi-source wastewater R(t) workflow").c_str());

  core::OspreyPlatform platform;
  core::WwUseCaseConfig config;
  config.horizon_days = 120;
  config.seed = 42;
  core::WastewaterUseCase usecase(platform, config);
  usecase.build();
  usecase.run_to_end();

  const auto& aero = platform.aero();
  const auto& db = aero.db();

  // --- flow-level summary: the DAG of Figure 1 -----------------------
  struct FlowAgg {
    int runs = 0;
    int failed = 0;
    aero::FlowKind kind = aero::FlowKind::kIngestion;
    std::string endpoint;
    util::SimTime total_duration = 0;
    std::string sample_trigger;
  };
  std::map<std::string, FlowAgg> by_flow;
  for (const auto& run : db.runs()) {
    FlowAgg& agg = by_flow[run.flow_name];
    agg.kind = run.kind;
    agg.endpoint = run.compute_endpoint;
    agg.runs++;
    if (run.status != aero::RunStatus::kSucceeded) agg.failed++;
    if (run.ended > run.started) agg.total_duration += run.ended - run.started;
    if (agg.sample_trigger.empty()) agg.sample_trigger = run.trigger;
  }
  util::TextTable flow_table({"flow", "kind", "compute endpoint", "runs",
                              "failed", "mean duration", "triggered by"});
  for (const auto& [name, agg] : by_flow) {
    flow_table.add_row(
        {name,
         agg.kind == aero::FlowKind::kIngestion ? "ingestion" : "analysis",
         agg.endpoint, std::to_string(agg.runs), std::to_string(agg.failed),
         util::format_duration(agg.total_duration /
                               std::max(agg.runs, 1)),
         agg.sample_trigger});
  }
  std::printf("Flows (4 ingestion -> 4 R(t) analysis -> 1 aggregation):\n%s\n",
              flow_table.render().c_str());

  // --- trigger cascade for one publication week ----------------------
  util::TextTable cascade({"run", "flow", "trigger", "start", "end"});
  int shown = 0;
  for (const auto& run : db.runs()) {
    // One full cascade: runs between day 56 and day 58.
    if (run.started < 56 * util::kDay || run.started > 58 * util::kDay) {
      continue;
    }
    cascade.add_row({std::to_string(run.run_id), run.flow_name, run.trigger,
                     util::format_sim_time(run.started),
                     util::format_sim_time(run.ended)});
    ++shown;
  }
  std::printf("Trigger cascade for one publication cycle (day 56):\n%s\n",
              cascade.render().c_str());
  (void)shown;

  // --- platform traffic ----------------------------------------------
  const auto& eagle =
      platform.storage_endpoint(core::WastewaterUseCase::kStorageName);
  const auto& scratch =
      platform.storage_endpoint(core::WastewaterUseCase::kStagingName);
  util::TextTable traffic({"metric", "count"});
  traffic.add_row({"source polls", std::to_string(aero.polls())});
  traffic.add_row({"upstream updates detected",
                   std::to_string(aero.updates_detected())});
  traffic.add_row({"ingestion flow runs", std::to_string(aero.ingestion_runs())});
  traffic.add_row({"analysis flow triggers",
                   std::to_string(aero.analysis_triggers())});
  traffic.add_row({"analysis flow runs", std::to_string(aero.analysis_runs())});
  traffic.add_row({"failed runs", std::to_string(aero.failed_runs())});
  traffic.add_row({"metadata queries (solid arrows)",
                   std::to_string(db.query_count())});
  traffic.add_row({"metadata updates (solid arrows)",
                   std::to_string(db.update_count())});
  traffic.add_row({"transfers completed",
                   std::to_string(platform.transfers().completed_count())});
  traffic.add_row({"eagle puts / gets",
                   std::to_string(eagle.puts()) + " / " +
                       std::to_string(eagle.gets())});
  traffic.add_row({"eagle bytes stored",
                   std::to_string(eagle.bytes_stored())});
  traffic.add_row({"scratch puts / gets",
                   std::to_string(scratch.puts()) + " / " +
                       std::to_string(scratch.gets())});
  std::printf("Platform traffic over %d virtual days:\n%s\n",
              config.horizon_days, traffic.render().c_str());

  // --- §2.2 placement claim ------------------------------------------
  std::printf(
      "Placement check (paper §2.2): transformation+aggregation ran on the\n"
      "shared login node ('bebop-login', <1 min each); the R(t) analysis ran\n"
      "as 1-node jobs on the PBS-scheduled endpoint ('bebop-compute').\n");
  const auto& pbs = platform.scheduler("bebop-pbs");
  util::SimTime max_wait = 0;
  for (const auto& job : pbs.jobs()) {
    if (job.queue_wait() > max_wait) max_wait = job.queue_wait();
  }
  std::printf("PBS jobs: %zu, max queue wait %s, machine utilization %.1f%%\n",
              pbs.jobs().size(), util::format_duration(max_wait).c_str(),
              100.0 * pbs.utilization());

  // --- observability: trace + critical path + metrics snapshot -------
  // The trace is loadable in https://ui.perfetto.dev (see README) and
  // feeds tools/osprey_trace; the BENCH_*.json snapshot seeds the perf
  // trajectory (makespan, per-category span time, flow throughput).
  std::vector<obs::SpanRecord> spans = platform.tracer().snapshot();
  util::write_text_file("results/trace_fig1.json",
                        obs::chrome_trace_json(spans));
  obs::CriticalPathReport report = obs::analyze(spans);
  std::printf("\n%s\n", obs::render_report(report).c_str());

  util::ValueObject bench;
  bench["bench"] = util::Value("fig1_workflow");
  bench["virtual_days"] = util::Value(config.horizon_days);
  bench["span_count"] = util::Value(spans.size());
  bench["makespan_ms"] = util::Value(
      static_cast<double>(report.makespan_ns) / 1e6);
  util::ValueObject category_ms;
  for (const auto& [cat, ns] : report.category_ns) {
    category_ms[cat] = util::Value(static_cast<double>(ns) / 1e6);
  }
  bench["category_ms"] = util::Value(std::move(category_ms));
  bench["flow_runs"] = util::Value(db.runs().size());
  bench["flow_runs_per_virtual_day"] = util::Value(
      static_cast<double>(db.runs().size()) / config.horizon_days);
  bench["critical_path"] = obs::report_json(report);
  bench["metrics"] = platform.metrics().snapshot();
  util::write_text_file("results/BENCH_fig1_workflow.json",
                        util::Value(std::move(bench)).to_json());
  std::printf("wrote results/trace_fig1.json and "
              "results/BENCH_fig1_workflow.json\n");

  // --- §4f durability overhead: WAL-on vs WAL-off --------------------
  // Re-run the identical workflow against a RealFs so the WAL cost
  // includes genuine file IO and fsync barriers, best-of-kReps per
  // variant (the run above doubles as warm-up). Each WAL pass starts
  // from an empty log directory so recovery is never in the timed path;
  // afterwards a cold recovery over the surviving files must rebuild a
  // byte-identical metadata snapshot (the §4f contract).
  constexpr int kReps = 3;
  const char* kWalRoot = "results/fig1-walfs";
  aero::WalOptions wal_options;
  wal_options.checkpoint_every = 256;

  aero::WalOptions baseline_options;  // unused when fs == nullptr
  WalPassResult base = run_workflow_pass(nullptr, baseline_options);
  for (int rep = 1; rep < kReps; ++rep) {
    WalPassResult r = run_workflow_pass(nullptr, baseline_options);
    if (r.wall_ms < base.wall_ms) base = r;
  }

  WalPassResult walled;
  for (int rep = 0; rep < kReps; ++rep) {
    std::filesystem::remove_all(kWalRoot);
    util::RealFs fs(kWalRoot);
    WalPassResult r = run_workflow_pass(&fs, wal_options);
    if (rep == 0 || r.wall_ms < walled.wall_ms) walled = r;
  }

  // Recover-and-compare self-check over the last pass's files.
  util::RealFs recovery_fs(kWalRoot);
  aero::MetadataDb recovered;
  obs::MetricsRegistry recovery_metrics;
  aero::Wal recovery_wal(recovery_fs, wal_options, recovery_metrics);
  aero::RecoveryStats stats = recovery_wal.recover(recovered);
  const bool identical = recovered.to_json().to_json() == walled.db_json &&
                         walled.db_json == base.db_json;

  const double overhead_pct =
      base.wall_ms > 0.0
          ? 100.0 * (walled.wall_ms - base.wall_ms) / base.wall_ms
          : 0.0;
  std::printf(
      "\nWAL overhead (best of %d, %d virtual days):\n"
      "  WAL off: %8.1f ms wall\n"
      "  WAL on:  %8.1f ms wall  (%llu appends, %llu fsyncs, "
      "checkpoint every %zu)\n"
      "  overhead: %+.1f%% wall, virtual makespan unchanged (%.1f ms)\n"
      "  cold recovery: checkpoint lsn %llu + %llu replayed -> "
      "byte-identical: %s\n",
      kReps, 120, base.wall_ms, walled.wall_ms,
      static_cast<unsigned long long>(walled.appends),
      static_cast<unsigned long long>(walled.fsyncs),
      wal_options.checkpoint_every, overhead_pct,
      walled.virtual_makespan_ms,
      static_cast<unsigned long long>(stats.checkpoint_lsn),
      static_cast<unsigned long long>(stats.replayed),
      identical ? "yes" : "NO");

  util::ValueObject wal_bench;
  wal_bench["bench"] = util::Value("fig1_wal_overhead");
  wal_bench["virtual_days"] = util::Value(120);
  wal_bench["reps"] = util::Value(kReps);
  wal_bench["checkpoint_every"] = util::Value(
      static_cast<std::int64_t>(wal_options.checkpoint_every));
  wal_bench["baseline_wall_ms"] = util::Value(base.wall_ms);
  wal_bench["wal_wall_ms"] = util::Value(walled.wall_ms);
  wal_bench["overhead_pct"] = util::Value(overhead_pct);
  wal_bench["virtual_makespan_ms"] = util::Value(walled.virtual_makespan_ms);
  wal_bench["virtual_makespan_overhead_pct"] = util::Value(
      base.virtual_makespan_ms > 0.0
          ? 100.0 * (walled.virtual_makespan_ms - base.virtual_makespan_ms) /
                base.virtual_makespan_ms
          : 0.0);
  wal_bench["wal_appends"] = util::Value(
      static_cast<std::int64_t>(walled.appends));
  wal_bench["wal_fsyncs"] = util::Value(
      static_cast<std::int64_t>(walled.fsyncs));
  wal_bench["recovery_checkpoint_lsn"] = util::Value(
      static_cast<std::int64_t>(stats.checkpoint_lsn));
  wal_bench["recovery_replayed"] = util::Value(
      static_cast<std::int64_t>(stats.replayed));
  wal_bench["recovered_byte_identical"] = util::Value(identical);
  util::write_text_file("results/BENCH_wal.json",
                        util::Value(std::move(wal_bench)).to_json());
  std::printf("wrote results/BENCH_wal.json\n");
  return identical ? 0 : 1;
}
