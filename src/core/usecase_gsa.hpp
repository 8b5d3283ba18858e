#pragma once

/// \file usecase_gsa.hpp
/// Use case 2 (paper §3): the Shared-Development-Environment workflow —
/// N instances of the MUSIC active-learning GSA (one per stochastic
/// MetaRVM replicate), interleaved over an EMEWS task queue whose worker
/// pool is started programmatically through the batch scheduler.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/metarvm_gsa.hpp"
#include "core/platform.hpp"
#include "emews/pool_launcher.hpp"
#include "emews/task_db.hpp"
#include "gsa/music.hpp"
#include "core/music_coop.hpp"

namespace osprey::core {

struct GsaUseCaseConfig {
  gsa::MusicConfig music;          // ranges default to Table 1
  std::size_t n_replicates = 10;
  std::size_t n_workers = 4;
  /// Launch the pool through the simulated PBS (paper's production
  /// path) or directly (paper's "locally when testing" path).
  bool launch_via_scheduler = true;
  epi::MetaRvmConfig model;        // defaults to a stratified population
  std::uint64_t model_seed = 2024;

  GsaUseCaseConfig() {
    music.ranges = table1_ranges();
    music.n_init = 25;
    music.n_total = 120;
    model = epi::MetaRvmConfig::stratified_demo(200'000, 90);
  }
};

struct GsaUseCaseResult {
  std::vector<gsa::MusicResult> replicates;  // one per MUSIC instance
  double pool_utilization = 0.0;
  std::uint64_t tasks_evaluated = 0;
  std::uint64_t driver_polls = 0;
};

/// Builder/runner. run() blocks the calling thread (it *is* the ME
/// algorithm thread of the paper, with worker threads evaluating the
/// model concurrently).
class GsaUseCase {
 public:
  GsaUseCase(OspreyPlatform& platform, GsaUseCaseConfig config);

  /// Initialization (paper §3.2): set up the task queue, start the
  /// worker pool (through the scheduler in production mode), create the
  /// interleaved MUSIC instances; then drive them to completion and
  /// finalize (close the queue, stop the pool).
  GsaUseCaseResult run();

  static constexpr const char* kTaskType = "metarvm";

 private:
  OspreyPlatform& platform_;
  GsaUseCaseConfig config_;
  /// The EMEWS task database, recording into the platform's tracer.
  emews::TaskDb task_db_;
};

}  // namespace osprey::core
