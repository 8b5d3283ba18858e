/// Figure 5 reproduction: first-order Sobol indices estimated
/// independently across 10 stochastic replicates of MetaRVM, each line a
/// replicate's index trajectory over increasing sample size. The
/// replicates run exactly as in §3.2: 10 interleaved MUSIC instances on
/// an EMEWS worker pool, each carrying its replicate id so the model
/// uses that replicate's random stream.

#include <cstdio>

#include "core/usecase_gsa.hpp"
#include "num/stats.hpp"
#include "util/csv.hpp"
#include "util/file_io.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

using namespace osprey;

int main() {
  util::set_log_level(util::LogLevel::kError);
  std::printf("%s", util::banner(
      "Figure 5 — Sobol indices across 10 stochastic MetaRVM replicates")
      .c_str());

  core::OspreyPlatform platform;
  core::GsaUseCaseConfig config;
  config.n_replicates = 10;
  config.n_workers = 4;
  config.music.n_init = 25;
  config.music.n_total = 150;
  config.music.n_candidates = 150;
  config.music.surrogate_mc_n = 512;
  config.music.reopt_every = 25;
  config.model = epi::MetaRvmConfig::stratified_demo(200'000, 90);
  config.model_seed = 2024;

  std::printf("running 10 interleaved MUSIC instances to n=%zu each...\n\n",
              config.music.n_total);
  core::GsaUseCase usecase(platform, config);
  core::GsaUseCaseResult result = usecase.run();

  auto ranges = core::table1_ranges();
  // --- five panels: per-replicate trajectories -------------------------
  for (std::size_t j = 0; j < ranges.size(); ++j) {
    std::vector<std::string> header{"n"};
    for (std::size_t r = 0; r < result.replicates.size(); ++r) {
      header.push_back("rep" + std::to_string(r));
    }
    util::TextTable panel(header);
    const auto& rows = result.replicates[0].trajectory;
    for (std::size_t row = 0; row < rows.size(); row += 25) {
      std::vector<std::string> line{std::to_string(rows[row].n)};
      for (const auto& rep : result.replicates) {
        line.push_back(util::TextTable::num(rep.trajectory[row].s1[j], 3));
      }
      panel.add_row(std::move(line));
    }
    // The stride above already printed the last row when it lands on it.
    if ((rows.size() - 1) % 25 != 0) {
      std::vector<std::string> line{std::to_string(rows.back().n)};
      for (const auto& rep : result.replicates) {
        line.push_back(util::TextTable::num(rep.trajectory.back().s1[j], 3));
      }
      panel.add_row(std::move(line));
    }
    std::printf("Panel: %s\n%s\n", ranges[j].name.c_str(),
                panel.render().c_str());
  }

  // --- cross-replicate spread (aleatoric vs epistemic picture) --------
  util::TextTable spread({"parameter", "mean final S1", "sd across reps",
                          "min", "max"});
  for (std::size_t j = 0; j < ranges.size(); ++j) {
    std::vector<double> vals;
    for (const auto& rep : result.replicates) {
      vals.push_back(rep.final_s1[j]);
    }
    num::Summary s = num::summarize(vals);
    spread.add_row({ranges[j].name, util::TextTable::num(s.mean, 3),
                    util::TextTable::num(s.sd, 3),
                    util::TextTable::num(s.min, 3),
                    util::TextTable::num(s.max, 3)});
  }
  std::printf("Cross-replicate variability of the final estimates:\n%s\n",
              spread.render().c_str());

  std::printf("workflow: %llu model evaluations\n",
              static_cast<unsigned long long>(result.tasks_evaluated));
  // Utilization and the poll count follow the worker threads'
  // scheduling, so they go to stderr and stdout stays reproducible.
  std::fprintf(stderr, "workflow: pool utilization %.0f%%, %llu cooperative "
               "polls\n",
               100.0 * result.pool_utilization,
               static_cast<unsigned long long>(result.driver_polls));

  // --- CSV artifact for external plotting ------------------------------
  util::CsvTable csv({"replicate", "n", "parameter", "s1"});
  for (std::size_t r = 0; r < result.replicates.size(); ++r) {
    for (const auto& step : result.replicates[r].trajectory) {
      for (std::size_t j = 0; j < ranges.size(); ++j) {
        csv.add_row({std::to_string(r), std::to_string(step.n),
                     ranges[j].name, util::format("%.5f", step.s1[j])});
      }
    }
  }
  util::write_text_file("results/fig5_replicates.csv", csv.to_string());
  std::printf("wrote results/fig5_replicates.csv (%zu rows)\n",
              csv.num_rows());
  return 0;
}
