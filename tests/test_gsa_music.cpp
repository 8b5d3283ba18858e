#include "gsa/music.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "artifact_dump.hpp"
#include "bit_pin.hpp"
#include "core/music_coop.hpp"
#include "emews/worker_pool.hpp"
#include "util/error.hpp"

namespace og = osprey::gsa;
namespace on = osprey::num;
namespace oe = osprey::emews;

namespace {

double additive_model(const on::Vector& x) {
  // On the box below, exact S1 = (0.64, 0.32, 0.04) / 1.0 style ratios:
  // variances: (2a)^2/12 per coefficient a and unit widths.
  return 4.0 * x[0] + 2.0 * x[1] + 1.0 * x[2];
}

std::vector<on::ParamRange> unit_ranges3() {
  return {{"a", 0.0, 1.0}, {"b", 0.0, 1.0}, {"c", 0.0, 1.0}};
}

og::MusicConfig fast_config() {
  og::MusicConfig cfg;
  cfg.ranges = unit_ranges3();
  cfg.n_init = 10;
  cfg.n_total = 30;
  cfg.n_candidates = 60;
  cfg.surrogate_mc_n = 512;
  cfg.reopt_every = 10;
  cfg.gp.mle_restarts = 1;
  cfg.gp.mle_max_iterations = 80;
  cfg.seed = 5;
  return cfg;
}

/// `%.17g` rows `n s1... st...`, one per trajectory record.
std::string trajectory_text(const std::vector<og::MusicStep>& trajectory) {
  std::vector<std::vector<double>> rows;
  for (const og::MusicStep& step : trajectory) {
    std::vector<double> row{static_cast<double>(step.n)};
    row.insert(row.end(), step.s1.begin(), step.s1.end());
    row.insert(row.end(), step.st.begin(), step.st.end());
    rows.push_back(std::move(row));
  }
  return osprey::testing::format_rows(rows);
}

}  // namespace

TEST(MusicEngine, InitialDesignShapeAndRange) {
  og::MusicEngine engine(fast_config());
  on::Matrix design = engine.initial_design_box();
  EXPECT_EQ(design.rows(), 10u);
  EXPECT_EQ(design.cols(), 3u);
  for (std::size_t i = 0; i < design.rows(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GE(design(i, j), 0.0);
      EXPECT_LE(design(i, j), 1.0);
    }
  }
}

TEST(MusicEngine, AdvanceBeforeDesignThrows) {
  og::MusicEngine engine(fast_config());
  EXPECT_THROW(engine.advance(), osprey::util::InvalidArgument);
}

TEST(MusicEngine, BudgetRespectedAndTrajectoryRecorded) {
  og::MusicResult result =
      og::run_music(fast_config(), og::ModelFn(additive_model));
  EXPECT_EQ(result.evaluations, 30u);
  // One record per advance: at n = 10, 11, ..., 30.
  EXPECT_EQ(result.trajectory.size(), 21u);
  EXPECT_EQ(result.trajectory.front().n, 10u);
  EXPECT_EQ(result.trajectory.back().n, 30u);
  EXPECT_EQ(result.final_s1.size(), 3u);
  EXPECT_EQ(result.y.size(), 30u);
}

TEST(MusicEngine, RecoversAdditiveIndices) {
  // Exact S1 for (4, 2, 1) coefficients: 16/21, 4/21, 1/21.
  og::MusicConfig cfg = fast_config();
  cfg.n_total = 40;
  og::MusicResult result =
      og::run_music(cfg, og::ModelFn(additive_model));
  EXPECT_NEAR(result.final_s1[0], 16.0 / 21.0, 0.08);
  EXPECT_NEAR(result.final_s1[1], 4.0 / 21.0, 0.08);
  EXPECT_NEAR(result.final_s1[2], 1.0 / 21.0, 0.06);
}

TEST(MusicEngine, DeterministicPerSeed) {
  og::MusicResult a = og::run_music(fast_config(), og::ModelFn(additive_model));
  og::MusicResult b = og::run_music(fast_config(), og::ModelFn(additive_model));
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t r = 0; r < a.trajectory.size(); ++r) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(a.trajectory[r].s1[j], b.trajectory[r].s1[j]);
    }
  }
}

TEST(MusicEngine, AcquisitionTargetsLeastKnownRegions) {
  // After the initial design, acquired points should not duplicate
  // existing design points (EIGF's variance term repels duplicates).
  og::MusicConfig cfg = fast_config();
  cfg.n_total = 20;
  og::MusicResult result = og::run_music(cfg, og::ModelFn(additive_model));
  for (std::size_t i = cfg.n_init; i < result.x_box.rows(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      double dist = 0.0;
      for (std::size_t c = 0; c < 3; ++c) {
        double d = result.x_box(i, c) - result.x_box(j, c);
        dist += d * d;
      }
      EXPECT_GT(std::sqrt(dist), 1e-4)
          << "acquired point " << i << " duplicates " << j;
    }
  }
}

TEST(MusicEngine, StabilizationDetection) {
  std::vector<og::MusicStep> trajectory;
  // Indices wobble until n=15, then settle.
  for (std::size_t n = 10; n <= 30; ++n) {
    double wobble = n < 15 ? 0.3 : 0.001;
    trajectory.push_back(
        og::MusicStep{n, {0.5 + (n % 2 ? wobble : -wobble), 0.3}, {}});
  }
  EXPECT_EQ(og::stabilization_n(trajectory, 0.05), 15u);
  // Never-stable trajectory returns the last n.
  std::vector<og::MusicStep> wobbly;
  for (std::size_t n = 10; n <= 20; ++n) {
    wobbly.push_back(og::MusicStep{n, {n % 2 ? 0.9 : 0.1}, {}});
  }
  EXPECT_EQ(og::stabilization_n(wobbly, 0.05), 20u);
}

TEST(MusicEngine, ConfigValidation) {
  og::MusicConfig cfg = fast_config();
  cfg.ranges.clear();
  EXPECT_THROW(og::MusicEngine{cfg}, osprey::util::InvalidArgument);
  cfg = fast_config();
  cfg.n_total = 5;  // < n_init
  EXPECT_THROW(og::MusicEngine{cfg}, osprey::util::InvalidArgument);
}

TEST(MusicEngine, RefitsHyperparametersExactlyOnCadence) {
  // The loop owns the refit cadence: a full MLE at n_init and at every
  // n_init + k * reopt_every, rank-1 appends with frozen hyperparameters
  // everywhere else.
  og::MusicConfig cfg = fast_config();
  og::MusicEngine engine(cfg);
  auto hyperparameters = [&engine] {
    const osprey::gp::GaussianProcess& gp = engine.surrogate();
    std::vector<double> h = gp.kernel().lengthscales;
    h.push_back(gp.kernel().variance);
    h.push_back(gp.nugget());
    return h;
  };
  on::Matrix design = engine.initial_design_box();
  for (std::size_t i = 0; i < design.rows(); ++i) {
    engine.ingest(design.row(i), additive_model(design.row(i)));
  }
  std::vector<double> previous;
  std::size_t refits = 0;
  for (std::size_t n = cfg.n_init;; ++n) {
    std::optional<on::Vector> next = engine.advance();
    std::vector<double> current = hyperparameters();
    if (n > cfg.n_init) {
      bool on_cadence = (n - cfg.n_init) % cfg.reopt_every == 0;
      EXPECT_EQ(current != previous, on_cadence) << "n = " << n;
      refits += on_cadence ? 1 : 0;
    }
    previous = current;
    if (!next) break;
    engine.ingest(*next, additive_model(*next));
  }
  EXPECT_EQ(refits, 2u);  // n = 20 and 30
}

TEST(MusicCoop, RunsOverEmewsQueue) {
  oe::TaskDb db;
  oe::ModelFn model = [](const osprey::util::Value& payload) {
    on::Vector x = payload.at("x").to_doubles();
    osprey::util::ValueObject out;
    out["y"] = osprey::util::Value(additive_model(x));
    return osprey::util::Value(std::move(out));
  };
  oe::WorkerPool pool(db, "m", model, 2);
  oe::InterleavedDriver driver(db);
  auto coop = std::make_shared<osprey::core::MusicCoop>(
      "coop0", oe::TaskQueue(db, "m"), fast_config(), 0);
  driver.add(coop);
  driver.run();
  EXPECT_TRUE(coop->finished());
  og::MusicResult result = coop->result();
  EXPECT_EQ(result.evaluations, 30u);
  EXPECT_NEAR(result.final_s1[0], 16.0 / 21.0, 0.1);
  pool.shutdown();
}

TEST(MusicCoop, MatchesSynchronousRun) {
  // The cooperative EMEWS path must produce the same trajectory as the
  // synchronous driver (same seed, deterministic model).
  og::MusicResult sync =
      og::run_music(fast_config(), og::ModelFn(additive_model));

  oe::TaskDb db;
  oe::ModelFn model = [](const osprey::util::Value& payload) {
    on::Vector x = payload.at("x").to_doubles();
    osprey::util::ValueObject out;
    out["y"] = osprey::util::Value(additive_model(x));
    return osprey::util::Value(std::move(out));
  };
  oe::WorkerPool pool(db, "m", model, 1);
  oe::InterleavedDriver driver(db);
  auto coop = std::make_shared<osprey::core::MusicCoop>(
      "coop0", oe::TaskQueue(db, "m"), fast_config(), 0);
  driver.add(coop);
  driver.run();
  pool.shutdown();
  og::MusicResult async = coop->result();

  ASSERT_EQ(async.trajectory.size(), sync.trajectory.size());
  for (std::size_t r = 0; r < sync.trajectory.size(); ++r) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(async.trajectory[r].s1[j], sync.trajectory[r].s1[j], 1e-9);
    }
  }
  osprey::testing::dump_artifacts(
      "music_coop", {{"sync.txt", trajectory_text(sync.trajectory)},
                     {"async.txt", trajectory_text(async.trajectory)}});
}

TEST(MusicCoop, ReplicateCarriedInPayload) {
  oe::TaskDb db;
  std::atomic<std::int64_t> seen_replicate{-1};
  oe::ModelFn model = [&seen_replicate](const osprey::util::Value& payload) {
    seen_replicate = payload.at("replicate").as_int();
    osprey::util::ValueObject out;
    out["y"] = osprey::util::Value(1.0 + payload.at("x").to_doubles()[0]);
    return osprey::util::Value(std::move(out));
  };
  oe::WorkerPool pool(db, "m", model, 1);
  og::MusicConfig cfg = fast_config();
  cfg.n_total = cfg.n_init;  // initial design only
  oe::InterleavedDriver driver(db);
  auto coop = std::make_shared<osprey::core::MusicCoop>(
      "coop7", oe::TaskQueue(db, "m"), cfg, 7);
  driver.add(coop);
  driver.run();
  pool.shutdown();
  EXPECT_EQ(seen_replicate.load(), 7);
  EXPECT_EQ(coop->replicate(), 7u);
}

namespace {

/// The pinned runs' outputs: every evaluated design row, then the final
/// S1 and ST.
struct PinnedMusic {
  std::vector<double> x_box;
  std::vector<double> final_s1;
  std::vector<double> final_st;
};

PinnedMusic pinned_music_run(const og::MusicConfig& cfg,
                             const std::string& artifact) {
  og::MusicResult result = og::run_music(cfg, og::ModelFn(additive_model));
  osprey::testing::dump_artifacts(
      artifact, {{"trajectory.txt", trajectory_text(result.trajectory)}});
  PinnedMusic out;
  for (std::size_t i = 0; i < result.x_box.rows(); ++i) {
    for (std::size_t j = 0; j < result.x_box.cols(); ++j) {
      out.x_box.push_back(result.x_box(i, j));
    }
  }
  out.final_s1 = result.final_s1;
  out.final_st = result.trajectory.back().st;
  return out;
}

}  // namespace

TEST(MusicPinned, EigfDesignsAndFinalIndices) {
  // Refits at n = 10 and 20, rank-1 appends in between and after: every
  // path of the surrogate refresh, pinned to the bit.
  og::MusicConfig cfg = fast_config();
  cfg.n_total = 22;
  PinnedMusic run = pinned_music_run(cfg, "music_pinned_eigf");
  osprey::testing::expect_bits(
      run.x_box,
      {
        0x1.0c2c7aa363e76p-3, 0x1.3a3244bcf5195p-1, 0x1.b8639945bdb7ap-5,
        0x1.9b66032458b33p-1, 0x1.9ba6f1c33cd7ep-2, 0x1.5a2276440c552p-1,
        0x1.61fba1997ada2p-1, 0x1.ad4804fc11c6p-1, 0x1.adf069fd8078bp-1,
        0x1.763982000cdc8p-2, 0x1.f436dc5094eddp-5, 0x1.dc4955c07a1cbp-3,
        0x1.aedf6e0c0880bp-5, 0x1.0f7215381328ep-1, 0x1.c6f06b3267a4ap-2,
        0x1.f5792a638a952p-2, 0x1.8aaaa28a0fdf5p-1, 0x1.91b0b5e25d2edp-2,
        0x1.03bca0f291d5ep-1, 0x1.2af0456dded38p-2, 0x1.91309677604d3p-1,
        0x1.dd1e0552bd72ap-1, 0x1.1b7884dd766b1p-3, 0x1.043051ebdc97ep-1,
        0x1.d1801c75f2a7ep-3, 0x1.615d7ca51a382p-2, 0x1.e33a0976071c8p-1,
        0x1.9708a3ad95cb6p-1, 0x1.ffdf66c06f988p-1, 0x1.89f5ae807db7ep-3,
        0x1.64184b66c9ecbp-3, 0x1.ffc89b7e098f1p-1, 0x1.c677df3457672p-1,
        0x1.12eba95ec61fdp-5, 0x1.1e2d6fcd47c4p-3, 0x1.4a745d0e94fcdp-1,
        0x1.8b63ce85cc554p-2, 0x1.64b4e3af59a16p-1, 0x1.a0ebac1cdaf81p-1,
        0x1.8bfd944ad1ee6p-1, 0x1.b1f0f142c4d2ap-1, 0x1.d20a8ca34d5efp-2,
        0x1.5cd57522dfdcp-1, 0x1.bb1c79cd3feb1p-3, 0x1.f67f708d63935p-5,
        0x1.246436fd292cdp-5, 0x1.564622179ed69p-4, 0x1.186269f4e33e5p-2,
        0x1.f71b2ae983c2p-1, 0x1.1af77f09ce987p-1, 0x1.a34ebc8af6139p-1,
        0x1.cdc4401ea4f34p-6, 0x1.4d7321043ef8p-1, 0x1.985558fbc2eb5p-1,
        0x1.9dd747495c7eap-2, 0x1.58fc1a132182dp-1, 0x1.c2db0b4c9286cp-5,
        0x1.741d531e607a4p-1, 0x1.56bacecfa08e5p-1, 0x1.5aea6052971b1p-5,
        0x1.ff26c9d458ab1p-1, 0x1.aa1a54c14f36ap-3, 0x1.4d438307f56edp-5,
        0x1.9ac8f2bff7bfap-6, 0x1.010c853377aa3p-2, 0x1.d859edeb0ba7fp-1,
      },
      "x_box");
  osprey::testing::expect_bits(
      run.final_s1,
      {
        0x1.852fc21f8eab5p-1, 0x1.6aff9f730849cp-3, 0x1.ea5eab682c487p-6,
      },
      "final_s1");
  osprey::testing::expect_bits(
      run.final_st,
      {
        0x1.8d79f95f4abd6p-1, 0x1.892b189f3d042p-3, 0x1.89f7dd35b682cp-5,
      },
      "final_st");
}

TEST(MusicPinned, RandomDesignsAndFinalIndices) {
  // kRandom draws its point from the candidate pool's own stream.
  og::MusicConfig cfg = fast_config();
  cfg.n_total = 14;
  cfg.acquisition = og::Acquisition::kRandom;
  PinnedMusic run = pinned_music_run(cfg, "music_pinned_random");
  osprey::testing::expect_bits(
      run.x_box,
      {
        0x1.0c2c7aa363e76p-3, 0x1.3a3244bcf5195p-1, 0x1.b8639945bdb7ap-5,
        0x1.9b66032458b33p-1, 0x1.9ba6f1c33cd7ep-2, 0x1.5a2276440c552p-1,
        0x1.61fba1997ada2p-1, 0x1.ad4804fc11c6p-1, 0x1.adf069fd8078bp-1,
        0x1.763982000cdc8p-2, 0x1.f436dc5094eddp-5, 0x1.dc4955c07a1cbp-3,
        0x1.aedf6e0c0880bp-5, 0x1.0f7215381328ep-1, 0x1.c6f06b3267a4ap-2,
        0x1.f5792a638a952p-2, 0x1.8aaaa28a0fdf5p-1, 0x1.91b0b5e25d2edp-2,
        0x1.03bca0f291d5ep-1, 0x1.2af0456dded38p-2, 0x1.91309677604d3p-1,
        0x1.dd1e0552bd72ap-1, 0x1.1b7884dd766b1p-3, 0x1.043051ebdc97ep-1,
        0x1.d1801c75f2a7ep-3, 0x1.615d7ca51a382p-2, 0x1.e33a0976071c8p-1,
        0x1.9708a3ad95cb6p-1, 0x1.ffdf66c06f988p-1, 0x1.89f5ae807db7ep-3,
        0x1.3d74df81c829bp-1, 0x1.7358f7d00df66p-2, 0x1.53755c40cfbd3p-2,
        0x1.a2a74e8daa5eep-1, 0x1.8bc63e5f677cfp-1, 0x1.e0c3c3bf4bc6fp-1,
        0x1.2cc988d2fb756p-2, 0x1.37aac102ffc25p-1, 0x1.7781def2a0836p-1,
        0x1.14cb357ac55bp-1, 0x1.b57da138e1553p-1, 0x1.914369eddd32ap-3,
      },
      "x_box");
  osprey::testing::expect_bits(
      run.final_s1,
      {
        0x1.853091afbb426p-1, 0x1.6afd9f8c8fc11p-3, 0x1.ea62348b6275fp-6,
      },
      "final_s1");
  osprey::testing::expect_bits(
      run.final_st,
      {
        0x1.8d7a654a7166dp-1, 0x1.8928094bb6f73p-3, 0x1.89f73446dff82p-5,
      },
      "final_st");
}
