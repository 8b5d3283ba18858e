/// Tests for the two extension subsystems: the GP-surrogate calibrator
/// and the workflow-artifact catalog.

#include <gtest/gtest.h>

#include <cmath>

#include "artifact_dump.hpp"
#include "bit_pin.hpp"
#include "core/artifact_catalog.hpp"
#include "core/metarvm_gsa.hpp"
#include "gsa/calibrate.hpp"
#include "util/error.hpp"

namespace oc = osprey::core;
namespace og = osprey::gsa;
namespace on = osprey::num;

namespace {

og::CalibrationConfig quad_config() {
  og::CalibrationConfig cfg;
  cfg.ranges = {{"a", 0.0, 1.0}, {"b", 0.0, 1.0}};
  cfg.n_init = 10;
  cfg.n_total = 35;
  cfg.n_candidates = 200;
  cfg.gp.mle_restarts = 0;
  cfg.seed = 3;
  return cfg;
}

}  // namespace

TEST(Calibrator, FindsQuadraticMinimum) {
  // Loss minimized at (0.3, 0.7).
  og::LossFn loss = [](const on::Vector& x) {
    return (x[0] - 0.3) * (x[0] - 0.3) + (x[1] - 0.7) * (x[1] - 0.7);
  };
  og::CalibrationResult result = og::calibrate(quad_config(), loss);
  EXPECT_EQ(result.evaluations, 35u);
  EXPECT_NEAR(result.best_x[0], 0.3, 0.08);
  EXPECT_NEAR(result.best_x[1], 0.7, 0.08);
  EXPECT_LT(result.best_loss, 0.01);
}

TEST(Calibrator, BestLossMonotonicallyImproves) {
  og::LossFn loss = [](const on::Vector& x) {
    return std::sin(5.0 * x[0]) + x[1] * x[1];
  };
  og::CalibrationResult result = og::calibrate(quad_config(), loss);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_LE(result.trajectory[i].best_loss,
              result.trajectory[i - 1].best_loss);
  }
}

TEST(Calibrator, BeatsInitialDesignAlone) {
  // EI refinement should improve meaningfully over the LHS-only minimum.
  og::LossFn loss = [](const on::Vector& x) {
    return std::pow(x[0] - 0.62, 2.0) + std::pow(x[1] - 0.41, 2.0);
  };
  og::CalibrationConfig cfg = quad_config();
  og::CalibrationResult result = og::calibrate(cfg, loss);
  double after_init = result.trajectory[cfg.n_init - 1].best_loss;
  EXPECT_LT(result.best_loss, 0.5 * after_init);
}

TEST(Calibrator, DeterministicPerSeed) {
  og::LossFn loss = [](const on::Vector& x) {
    return x[0] * x[0] + 0.5 * x[1];
  };
  og::CalibrationResult a = og::calibrate(quad_config(), loss);
  og::CalibrationResult b = og::calibrate(quad_config(), loss);
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_DOUBLE_EQ(a.best_loss, b.best_loss);
}

TEST(Calibrator, RecoversMetaRvmTransmissionRate) {
  // Generate "observed" hospitalizations at a known ts, then calibrate
  // (ts, psh) to match — the paper's calibration motivation, end to end.
  auto model = std::make_shared<const osprey::epi::MetaRvm>(
      osprey::epi::MetaRvmConfig::single_group(50'000, 30, 60));
  osprey::epi::MetaRvmParams truth = osprey::epi::MetaRvmParams::nominal();
  truth.ts = 0.42;
  truth.psh = 0.27;
  on::RngStream obs_rng = on::RngStream(5).substream(0);
  auto observed_traj = model->run(truth, obs_rng);
  std::vector<double> observed;
  for (std::int64_t v : observed_traj.total_new_hospitalizations()) {
    observed.push_back(static_cast<double>(v));
  }

  og::CalibrationConfig cfg;
  cfg.ranges = {{"ts", 0.1, 0.9}, {"psh", 0.1, 0.4}};
  cfg.n_init = 12;
  cfg.n_total = 45;
  cfg.n_candidates = 200;
  cfg.gp.mle_restarts = 0;
  cfg.seed = 11;
  og::LossFn loss = [&](const on::Vector& x) {
    osprey::epi::MetaRvmParams p = osprey::epi::MetaRvmParams::nominal();
    p.ts = x[0];
    p.psh = x[1];
    on::RngStream rng = on::RngStream(5).substream(0);  // common random numbers
    auto traj = model->run(p, rng);
    std::vector<double> simulated;
    for (std::int64_t v : traj.total_new_hospitalizations()) {
      simulated.push_back(static_cast<double>(v));
    }
    return og::series_mse_log(simulated, observed);
  };
  og::CalibrationResult result = og::calibrate(cfg, loss);
  // The loss surface is stochastic-rough (trajectories diverge under a
  // common random stream once parameters change), so the exact zero at
  // the truth is a needle. What calibration promises — and what we
  // assert — is basin-finding: a fit much better than the nominal
  // starting point, with ts localized by the epidemic growth rate.
  on::Vector nominal_x{osprey::epi::MetaRvmParams::nominal().ts,
                       osprey::epi::MetaRvmParams::nominal().psh};
  EXPECT_LT(result.best_loss, 0.4 * loss(nominal_x));
  EXPECT_NEAR(result.best_x[0], truth.ts, 0.15);
}

TEST(CalibratorCadence, RefitsHyperparametersExactlyOnCadence) {
  // Same loop as MUSIC: a full MLE at n_init and at every
  // n_init + k * reopt_every, rank-1 appends with frozen hyperparameters
  // everywhere else. The final advance() refreshes nothing.
  og::CalibrationConfig cfg = quad_config();
  og::Calibrator calibrator(cfg);
  og::LossFn loss = [](const on::Vector& x) {
    return (x[0] - 0.3) * (x[0] - 0.3) + (x[1] - 0.7) * (x[1] - 0.7);
  };
  auto hyperparameters = [&calibrator] {
    const osprey::gp::GaussianProcess& gp = calibrator.surrogate();
    std::vector<double> h = gp.kernel().lengthscales;
    h.push_back(gp.kernel().variance);
    h.push_back(gp.nugget());
    return h;
  };
  on::Matrix design = calibrator.initial_design_box();
  for (std::size_t i = 0; i < design.rows(); ++i) {
    calibrator.ingest(design.row(i), loss(design.row(i)));
  }
  std::vector<double> previous;
  std::size_t refits = 0;
  for (std::size_t n = cfg.n_init;; ++n) {
    std::optional<on::Vector> next = calibrator.advance();
    if (!next) break;
    std::vector<double> current = hyperparameters();
    if (n > cfg.n_init) {
      bool on_cadence = (n - cfg.n_init) % cfg.reopt_every == 0;
      EXPECT_EQ(current != previous, on_cadence) << "n = " << n;
      refits += on_cadence ? 1 : 0;
    }
    previous = current;
    calibrator.ingest(*next, loss(*next));
  }
  EXPECT_EQ(refits, 2u);  // n = 20 and 30
}

TEST(CalibratorPinned, ChosenPointsAndBestLoss) {
  // Refits at n = 10 and 20, rank-1 appends in between and after; the
  // loss records every point the calibrator asks for, in order.
  og::CalibrationConfig cfg = quad_config();
  cfg.n_total = 24;
  std::vector<double> evaluated;
  og::LossFn loss = [&evaluated](const on::Vector& x) {
    evaluated.insert(evaluated.end(), x.begin(), x.end());
    return std::sin(5.0 * x[0]) + (x[1] - 0.4) * (x[1] - 0.4);
  };
  og::CalibrationResult result = og::calibrate(cfg, loss);
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    rows.push_back({static_cast<double>(result.trajectory[i].n),
                    evaluated[2 * i], evaluated[2 * i + 1],
                    result.trajectory[i].best_loss});
  }
  osprey::testing::dump_artifacts(
      "calibrator_pinned",
      {{"trajectory.txt", osprey::testing::format_rows(rows)}});
  osprey::testing::expect_bits(
      evaluated,
      {
        0x1.f03d5eac94675p-2, 0x1.42df325d2adbcp-1, 0x1.22bfe475a8cb4p-1,
        0x1.71ffac642a7f5p-1, 0x1.be416d252b5a6p-1, 0x1.c0fd6aa1aaa68p-1,
        0x1.5941ab041d33ep-3, 0x1.176f80a34afebp-1, 0x1.760f9b8e0ce66p-1,
        0x1.e46dcf9a9b75dp-2, 0x1.59f23138d8dp-1, 0x1.f0f3cccb7ea8p-3,
        0x1.712a8790afd7cp-4, 0x1.b8a0dcab4b0e6p-4, 0x1.9fa2cdf9a3845p-3,
        0x1.fa8458cbc0ffbp-1, 0x1.8d05c122c8b5p-2, 0x1.677dd507cb6a7p-2,
        0x1.e0304f26d92a5p-1, 0x1.c8d9c6bff743p-5, 0x1.e9183172c7656p-1,
        0x1.94c5d75dc51a3p-2, 0x1.f92acbecede8fp-1, 0x1.62ae678e93945p-2,
        0x1.e8847ef5039acp-1, 0x1.b60c96165f66fp-2, 0x1.e3dd9c3c78114p-1,
        0x1.68c5682d45c33p-2, 0x1.d830fb88caf46p-1, 0x1.c20adf969c5bap-2,
        0x1.4eee1c38c3d3dp-6, 0x1.ea63a7b26385ap-1, 0x1.e9a47d3551fcap-1,
        0x1.986ca6530ace5p-2, 0x1.e93cf71083ac6p-1, 0x1.835ac9a9a2b3dp-2,
        0x1.9e1942f7c41d2p-11, 0x1.6208d7005c4cap-2, 0x1.f4303a378488cp-1,
        0x1.ca069cfd72edbp-1, 0x1.e1341184fcf7dp-1, 0x1.8c48a4ff5f0bap-2,
        0x1.e3e7b878b98b2p-1, 0x1.bc102adfa0e0fp-2, 0x1.d92494927b317p-1,
        0x1.55cd5bb435e94p-2, 0x1.e039e6dcd5f0ep-1, 0x1.ab3dffd7cec51p-2,
      },
      "evaluated");
  osprey::testing::expect_bits(
      {result.best_loss},
      {
        -0x1.ffde86442fe57p-1,
      },
      "best_loss");
  osprey::testing::expect_bits(
      result.best_x,
      {
        0x1.e1341184fcf7dp-1, 0x1.8c48a4ff5f0bap-2,
      },
      "best_x");
}

TEST(Calibrator, Validation) {
  og::CalibrationConfig cfg;  // empty ranges
  EXPECT_THROW(og::Calibrator{cfg}, osprey::util::InvalidArgument);
  EXPECT_THROW(og::series_mse_log({1.0}, {1.0, 2.0}),
               osprey::util::InvalidArgument);
}

// ---------------------------------------------------------------------

namespace {

oc::ArtifactCatalog demo_catalog() {
  oc::ArtifactCatalog catalog;
  catalog.add({"metarvm", oc::ArtifactType::kModel, oc::Language::kCpp,
               "1.0.0", "stochastic metapopulation epidemic model",
               {"epidemiology", "stochastic"}, "repo://src/epi/metarvm.hpp"});
  catalog.add({"music-gsa", oc::ArtifactType::kMeAlgorithm,
               oc::Language::kR, "0.9.0",
               "active-learning Sobol sensitivity analysis",
               {"gsa", "surrogate"}, "repo://src/gsa/music.hpp"});
  catalog.add({"music-gsa", oc::ArtifactType::kMeAlgorithm,
               oc::Language::kR, "1.0.0",
               "active-learning Sobol sensitivity analysis",
               {"gsa", "surrogate"}, "repo://src/gsa/music.hpp"});
  catalog.add({"rt-estimate", oc::ArtifactType::kHarness,
               oc::Language::kJulia, "1.0.0",
               "Goldstein wastewater R(t) estimation",
               {"epidemiology", "bayesian"}, "repo://src/rt/goldstein.hpp"});
  return catalog;
}

}  // namespace

TEST(ArtifactCatalog, RegisterAndLookup) {
  oc::ArtifactCatalog catalog = demo_catalog();
  EXPECT_EQ(catalog.size(), 4u);
  EXPECT_TRUE(catalog.has("metarvm", "1.0.0"));
  EXPECT_FALSE(catalog.has("metarvm", "2.0.0"));
  EXPECT_EQ(catalog.get("music-gsa", "0.9.0").version, "0.9.0");
  EXPECT_EQ(catalog.latest("music-gsa").version, "1.0.0");
  EXPECT_THROW(catalog.get("nope", "1.0.0"), osprey::util::NotFound);
  EXPECT_THROW(catalog.latest("nope"), osprey::util::NotFound);
}

TEST(ArtifactCatalog, DuplicateRejected) {
  oc::ArtifactCatalog catalog = demo_catalog();
  EXPECT_THROW(
      catalog.add({"metarvm", oc::ArtifactType::kModel, oc::Language::kCpp,
                   "1.0.0", "", {}, ""}),
      osprey::util::InvalidArgument);
}

TEST(ArtifactCatalog, DiscoveryQueries) {
  oc::ArtifactCatalog catalog = demo_catalog();
  EXPECT_EQ(catalog.by_type(oc::ArtifactType::kMeAlgorithm).size(), 2u);
  EXPECT_EQ(catalog.by_type(oc::ArtifactType::kDataset).size(), 0u);
  EXPECT_EQ(catalog.by_tag("epidemiology").size(), 2u);
  EXPECT_EQ(catalog.by_language(oc::Language::kJulia).size(), 1u);
  EXPECT_EQ(catalog.search("SOBOL").size(), 2u);  // case-insensitive
  EXPECT_EQ(catalog.search("wastewater").size(), 1u);
}

TEST(ArtifactCatalog, JsonRoundTrip) {
  oc::ArtifactCatalog catalog = demo_catalog();
  osprey::util::Value json = catalog.to_json();
  // Serializes to parseable JSON text.
  osprey::util::Value reparsed =
      osprey::util::Value::parse_json(json.to_json());
  oc::ArtifactCatalog round = oc::ArtifactCatalog::from_json(reparsed);
  EXPECT_EQ(round.size(), catalog.size());
  EXPECT_EQ(round.get("rt-estimate", "1.0.0").language,
            oc::Language::kJulia);
  EXPECT_EQ(round.latest("music-gsa").version, "1.0.0");
  EXPECT_EQ(round.get("metarvm", "1.0.0").tags,
            (std::vector<std::string>{"epidemiology", "stochastic"}));
}

TEST(ArtifactCatalog, FromJsonValidation) {
  osprey::util::Value bad;
  bad["catalog_format"] = osprey::util::Value(std::int64_t{99});
  bad["artifacts"] = osprey::util::Value(osprey::util::ValueArray{});
  EXPECT_THROW(oc::ArtifactCatalog::from_json(bad),
               osprey::util::InvalidArgument);
}
