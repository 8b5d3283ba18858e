#pragma once

/// \file usecase_ww.hpp
/// Use case 1 (paper §2): the fully automated multi-source wastewater
/// R(t) workflow of Figure 1, built on the OSPREY platform:
///
///   4 ingestion flows (daily polling of the IWSS-like feeds, validate +
///   transform on the login node, versioned storage) →
///   4 R(t) analysis flows (Goldstein-style MCMC on the PBS-scheduled
///   compute endpoint, triggered by transformed-data updates) →
///   1 aggregation flow (population-weighted ensemble, triggered when
///   ALL four R(t) analyses have produced new data).
///
/// Harness languages mirror the paper: a Python harness wraps a Julia
/// R(t) estimation and R plotting; aggregation is an R function behind a
/// Python harness (see core/harness.hpp for the substitution note).

#include <memory>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "core/platform.hpp"
#include "core/wastewater_source.hpp"
#include "epi/wastewater.hpp"
#include "fabric/compute.hpp"
#include "rt/goldstein.hpp"
#include "rt/posterior.hpp"

namespace osprey::core {

struct WwUseCaseConfig {
  int horizon_days = 120;
  std::uint64_t seed = 42;
  /// Day the daily polling timers first fire (enough samples must have
  /// accumulated for the estimator's minimum).
  int first_poll_day = 28;
  /// MCMC settings for the per-plant estimations (smaller than the
  /// estimator defaults: the workflow runs one MCMC per plant per week).
  rt::GoldsteinConfig goldstein;
  /// Posterior draws serialized for the ensemble aggregation.
  int aggregate_draws = 200;
  /// When true, every per-plant refit after the first cold fit resumes
  /// from the previous chain state (rt::GoldsteinEstimator::
  /// estimate_update) with capped iterations, so the per-sample trigger
  /// path has bounded time-to-fresh-R(t). The first fit — and any fit
  /// whose horizon moved backwards — stays a cold full refit.
  bool online_updates = true;
  epi::WastewaterConfig ww;
  /// Recovery knobs applied to every registered flow (ingestion,
  /// analysis, aggregation). Disabled by default, matching the paper's
  /// happy-path run; the chaos suite turns them on.
  osprey::util::RetryPolicy retry;
  osprey::util::CircuitBreakerConfig breaker;

  WwUseCaseConfig() {
    goldstein.iterations = 1600;
    goldstein.burnin = 800;
    goldstein.thin = 4;
    goldstein.update_iterations = 400;
    goldstein.update_burnin = 160;
  }
};

/// The published R(t) summary CSV: `day,median,lo95,hi95`, "%.6f".
std::string series_to_csv(const rt::RtSeries& series);
/// The first `max_draws` posterior draws as CSV: header `d0,d1,...`,
/// one row per draw, "%.5f". Written straight into one string.
std::string draws_to_csv(const rt::RtPosterior& posterior, int max_draws);

/// Builder + result reader for the workflow.
class WastewaterUseCase {
 public:
  WastewaterUseCase(OspreyPlatform& platform, WwUseCaseConfig config);

  /// Create endpoints/collections, register harnesses, compute
  /// functions and all AERO flows. Call once, before running.
  void build();

  /// Drive virtual time to the end of the horizon (plus a tail so the
  /// last analyses and aggregation complete).
  void run_to_end();

  // --- results ---
  struct PlantOutput {
    epi::Plant plant;
    rt::RtSeries series;          // latest published estimate
    std::vector<double> truth;    // ground-truth R(t), same length
    int versions = 0;             // published estimate versions
  };
  /// Latest per-plant R(t) estimates read back from the storage
  /// endpoint (as a stakeholder would).
  std::vector<PlantOutput> plant_outputs() const;

  bool has_aggregate() const;
  /// The population-weighted ensemble estimate (Figure 2, bottom).
  rt::RtSeries aggregate_output() const;
  /// Population-weighted truth for scoring the ensemble.
  std::vector<double> aggregate_truth(std::size_t days) const;

  // --- introspection ---
  HarnessRegistry& harnesses() { return *harnesses_; }
  const std::vector<std::shared_ptr<epi::WastewaterGenerator>>& generators()
      const {
    return generators_;
  }
  const std::vector<aero::IngestionHandles>& ingestions() const {
    return ingestion_handles_;
  }
  /// Per plant: [summary uuid, draws uuid, plot uuid, meta uuid]. The
  /// meta artifact's aero version history is the warm-start lineage:
  /// each refit publishes its mode (full/warm), update counter and
  /// per-phase acceptance.
  const std::vector<std::vector<std::string>>& analysis_outputs() const {
    return analysis_outputs_;
  }
  const std::vector<std::string>& aggregate_outputs() const {
    return aggregate_outputs_;
  }

  static constexpr const char* kStorageName = "alcf-eagle";
  static constexpr const char* kStagingName = "bebop-scratch";
  static constexpr const char* kCollection = "ww-rt";
  static constexpr const char* kStagingCollection = "staging";

 private:
  struct ChainRegistry;

  void register_harnesses();
  /// Prepare step of the offloaded "rt-analysis" function: picks the
  /// chain mode, counts the refit and opens its span at the virtual
  /// start; the work runs the harness chain, and the commit sets the
  /// acceptance gauges at completion.
  fabric::OffloadedBody prepare_refit(const osprey::util::Value& args);
  rt::RtSeries read_series(const std::string& uuid) const;

  OspreyPlatform& platform_;
  WwUseCaseConfig config_;
  /// Shared with in-flight analysis work, which may outlive the use
  /// case until the compute endpoint joins it.
  std::shared_ptr<HarnessRegistry> harnesses_;
  std::shared_ptr<ChainRegistry> chains_;
  std::vector<std::shared_ptr<epi::WastewaterGenerator>> generators_;
  std::vector<aero::IngestionHandles> ingestion_handles_;
  std::vector<std::vector<std::string>> analysis_outputs_;
  std::vector<std::string> aggregate_outputs_;
  bool built_ = false;
};

}  // namespace osprey::core
