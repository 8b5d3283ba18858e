#include "epi/wastewater.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "crypto/sha256.hpp"
#include "num/stats.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"

namespace oe = osprey::epi;

namespace {

oe::WastewaterGenerator make_gen(std::uint64_t seed = 1) {
  return oe::WastewaterGenerator(oe::chicago_plants()[0],
                                 oe::chicago_truths()[0],
                                 oe::WastewaterConfig{}, seed);
}

}  // namespace

TEST(Wastewater, FourChicagoPlantsWithPopulations) {
  auto plants = oe::chicago_plants();
  ASSERT_EQ(plants.size(), 4u);
  EXPECT_EQ(plants[0].name, "O'Brien");
  EXPECT_EQ(plants[1].name, "Calumet");
  EXPECT_EQ(plants[2].name, "Stickney South");
  EXPECT_EQ(plants[3].name, "Stickney North");
  for (const auto& p : plants) {
    EXPECT_GT(p.population_served, 500'000);
    EXPECT_GT(p.avg_flow_mgd, 0.0);
  }
  EXPECT_EQ(oe::chicago_truths().size(), 4u);
}

TEST(Wastewater, TruthRtInPlausibleRange) {
  auto gen = make_gen();
  EXPECT_EQ(gen.true_rt().size(), 120u);
  for (double r : gen.true_rt()) {
    EXPECT_GT(r, 0.4);
    EXPECT_LT(r, 2.5);
  }
}

TEST(Wastewater, IncidenceRespondsToRt) {
  // With R(t) > 1 sustained, incidence grows; the default truth wave
  // starts above 1, so early incidence trends upward on average.
  auto gen = make_gen(3);
  const auto& inc = gen.incidence();
  double early = 0.0, later = 0.0;
  for (int t = 0; t < 20; ++t) early += inc[static_cast<std::size_t>(t)];
  for (int t = 30; t < 50; ++t) later += inc[static_cast<std::size_t>(t)];
  EXPECT_GT(gen.true_rt()[10], 1.0);
  EXPECT_GT(later, early);
}

TEST(Wastewater, SamplesFollowMonWedFriCadence) {
  auto gen = make_gen();
  for (const auto& s : gen.samples()) {
    int weekday = s.day % 7;
    EXPECT_TRUE(weekday == 0 || weekday == 2 || weekday == 4)
        << "day " << s.day;
    EXPECT_GT(s.concentration, 0.0);
  }
  // ~3 samples per week over 120 days.
  EXPECT_NEAR(static_cast<double>(gen.samples().size()), 120.0 * 3 / 7, 4.0);
}

TEST(Wastewater, SamplesTrackLatentConcentration) {
  auto gen = make_gen(5);
  std::vector<double> obs, latent;
  for (const auto& s : gen.samples()) {
    obs.push_back(std::log(s.concentration));
    latent.push_back(
        std::log(gen.latent_concentration()[static_cast<std::size_t>(s.day)]));
  }
  EXPECT_GT(osprey::num::correlation(obs, latent), 0.9);
}

TEST(Wastewater, DeterministicPerSeed) {
  auto a = make_gen(7);
  auto b = make_gen(7);
  auto c = make_gen(8);
  EXPECT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples()[i].concentration,
                     b.samples()[i].concentration);
  }
  EXPECT_NE(a.samples()[5].concentration, c.samples()[5].concentration);
}

TEST(Wastewater, PublicationWeeklyCadence) {
  auto gen = make_gen();
  EXPECT_EQ(gen.last_publication_day(-1), -1);
  EXPECT_EQ(gen.last_publication_day(0), 0);
  EXPECT_EQ(gen.last_publication_day(6), 0);
  EXPECT_EQ(gen.last_publication_day(7), 7);
  EXPECT_EQ(gen.last_publication_day(20), 14);
  // Checksum only changes on publication boundaries.
  std::string d8 = gen.published_csv(8);
  std::string d13 = gen.published_csv(13);
  std::string d14 = gen.published_csv(14);
  EXPECT_EQ(osprey::crypto::Sha256::hash_hex(d8),
            osprey::crypto::Sha256::hash_hex(d13));
  EXPECT_NE(osprey::crypto::Sha256::hash_hex(d13),
            osprey::crypto::Sha256::hash_hex(d14));
}

TEST(Wastewater, PublishedCsvParsesAndRespectsCutoff) {
  auto gen = make_gen();
  osprey::util::CsvTable table =
      osprey::util::CsvTable::parse(gen.published_csv(30));
  ASSERT_TRUE(table.has_column("day"));
  ASSERT_TRUE(table.has_column("concentration_gc_per_l"));
  for (double day : table.column_doubles("day")) {
    EXPECT_LE(day, 28.0);  // publication day for day 30 is 28
  }
  EXPECT_EQ(table.column_strings("plant")[0], "O'Brien");
  EXPECT_EQ(table.num_rows(), gen.samples_through(28).size());

  // The CSV is written straight into one string; it must be the bytes a
  // CsvTable of the same rows writes, on every day of the horizon and
  // for a plant name that needs quoting.
  oe::Plant quoted = oe::chicago_plants()[2];
  quoted.name = "Stickney \"South\", IL";
  oe::WastewaterConfig long_run;
  long_run.days = 224;
  for (const oe::WastewaterGenerator& g :
       {make_gen(7), oe::WastewaterGenerator(quoted, oe::chicago_truths()[2],
                                             long_run, 3)}) {
    for (int day = -1; day < g.config().days; ++day) {
      osprey::util::CsvTable reference(
          {"day", "plant", "concentration_gc_per_l"});
      for (const oe::WwSample& s :
           g.samples_through(g.last_publication_day(day))) {
        reference.add_row({std::to_string(s.day), g.plant().name,
                           osprey::util::format("%.6g", s.concentration)});
      }
      ASSERT_EQ(g.published_csv(day), reference.to_string())
          << g.plant().name << " day " << day;
    }
  }
  EXPECT_EQ(osprey::util::CsvTable::parse(
                oe::WastewaterGenerator(quoted, oe::chicago_truths()[2],
                                        long_run, 3)
                    .published_csv(7))
                .column_strings("plant")[0],
            quoted.name);
}

TEST(Wastewater, ReportedCasesAreThinnedIncidence) {
  auto gen = make_gen(11);
  const auto& cases = gen.reported_cases();
  const auto& inc = gen.incidence();
  ASSERT_EQ(cases.size(), inc.size());
  double case_sum = 0.0, inc_sum = 0.0;
  for (std::size_t t = 0; t < cases.size(); ++t) {
    EXPECT_LE(cases[t], inc[t]);
    case_sum += cases[t];
    inc_sum += inc[t];
  }
  EXPECT_NEAR(case_sum / inc_sum, 0.25, 0.03);  // reporting fraction
}

TEST(Wastewater, PlantsHaveDistinctWaves) {
  oe::WastewaterConfig cfg;
  auto plants = oe::chicago_plants();
  auto truths = oe::chicago_truths();
  oe::WastewaterGenerator a(plants[0], truths[0], cfg, 1);
  oe::WastewaterGenerator b(plants[1], truths[1], cfg, 2);
  // Phases differ, so the R(t) trajectories are not identical.
  double max_diff = 0.0;
  for (std::size_t t = 0; t < a.true_rt().size(); ++t) {
    max_diff = std::max(max_diff,
                        std::abs(a.true_rt()[t] - b.true_rt()[t]));
  }
  EXPECT_GT(max_diff, 0.1);
}
