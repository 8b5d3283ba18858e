#include "core/usecase_gsa.hpp"

#include "emews/interleave.hpp"
#include "emews/worker_pool.hpp"
#include "util/log.hpp"

namespace osprey::core {

GsaUseCase::GsaUseCase(OspreyPlatform& platform, GsaUseCaseConfig config)
    : platform_(platform), config_(std::move(config)) {
  task_db_.set_tracer(&platform_.tracer());
}

GsaUseCaseResult GsaUseCase::run() {
  auto model = std::make_shared<const epi::MetaRvm>(config_.model);
  std::uint64_t seed = config_.model_seed;
  emews::ModelFn task_model =
      [model, seed](const osprey::util::Value& payload) {
        return metarvm_task_model(model, seed, payload);
      };

  // --- initialization: queue + worker pool ---
  emews::TaskQueue queue(task_db_, kTaskType);

  std::unique_ptr<emews::LaunchedPool> launched;
  std::unique_ptr<emews::WorkerPool> direct_pool;
  if (config_.launch_via_scheduler) {
    // Production path: a job on the (simulated) PBS starts the pool.
    fabric::BatchScheduler& sched = platform_.add_scheduler("improv-pbs", 2);
    emews::PoolLaunchSpec spec;
    spec.name = "metarvm-pool";
    spec.n_workers = config_.n_workers;
    launched = std::make_unique<emews::LaunchedPool>(
        sched, task_db_, kTaskType, task_model, spec);
    platform_.run_until(platform_.loop().now() + osprey::util::kMinute);
  } else {
    direct_pool = std::make_unique<emews::WorkerPool>(
        task_db_, kTaskType, task_model, config_.n_workers, "metarvm-pool");
  }

  // --- the interleaved MUSIC instances, one per replicate ---
  emews::InterleavedDriver driver(task_db_);
  std::vector<std::shared_ptr<MusicCoop>> instances;
  for (std::size_t r = 0; r < config_.n_replicates; ++r) {
    gsa::MusicConfig mc = config_.music;
    mc.seed = config_.music.seed + r;  // distinct designs per instance
    auto coop = std::make_shared<MusicCoop>(
        "music-rep" + std::to_string(r), queue, mc, r);
    instances.push_back(coop);
    driver.add(coop);
  }
  // One span covers the interleaved ME drive; task spans (recorded by
  // the TaskDb on the same clock) fall inside it.
  obs::SpanId run_span = platform_.tracer().begin_span(
      obs::Category::kGsa, "gsa:music-run", task_db_.clock().now_ns(),
      obs::kNoSpan, std::to_string(config_.n_replicates) + " replicate(s)");
  driver.run();
  platform_.tracer().end_span(run_span, task_db_.clock().now_ns());

  // --- finalization: close the queue, stop the worker pool ---
  GsaUseCaseResult result;
  for (const auto& inst : instances) {
    result.replicates.push_back(inst->result());
  }
  if (launched) {
    launched->stop();
    result.pool_utilization = launched->pool().utilization();
    result.tasks_evaluated = launched->pool().tasks_evaluated();
  } else {
    direct_pool->shutdown();
    result.pool_utilization = direct_pool->utilization();
    result.tasks_evaluated = direct_pool->tasks_evaluated();
  }
  result.driver_polls = driver.total_polls();
  OSPREY_LOG_INFO("osprey", "GSA use case finished: "
                            << result.tasks_evaluated << " evaluations");
  return result;
}

}  // namespace osprey::core
