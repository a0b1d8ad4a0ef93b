// The utk::Engine facade: algorithm parity through QuerySpec, kAuto
// planning, RunBatch determinism under any thread count, spec validation,
// and CSV round-tripping.
#include "api/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/topk.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/workload.h"

namespace utk {
namespace {

QuerySpec MakeSpec(QueryMode mode, Algorithm algo, int k,
                   ConvexRegion region) {
  QuerySpec spec;
  spec.mode = mode;
  spec.algorithm = algo;
  spec.k = k;
  spec.region = std::move(region);
  return spec;
}

class EngineParityTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {  // (dist, k)
 protected:
  static Dataset MakeData(Distribution dist) {
    return Generate(dist, 120, 3, 20250728);
  }
};

// Every algorithm, forced through the same QuerySpec, must report the
// identical UTK1 id set. kJaa answers UTK1 as the union of its arrangement.
TEST_P(EngineParityTest, AllAlgorithmsAgreeOnUtk1) {
  const auto dist = static_cast<Distribution>(std::get<0>(GetParam()));
  const int k = std::get<1>(GetParam());
  Engine engine(MakeData(dist));
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.25}, {0.35, 0.4});

  const Algorithm algos[] = {Algorithm::kRsa, Algorithm::kJaa,
                             Algorithm::kBaselineSk, Algorithm::kBaselineOn,
                             Algorithm::kNaive};
  QueryResult reference =
      engine.Run(MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, k, region));
  ASSERT_TRUE(reference.ok) << reference.error;
  EXPECT_FALSE(reference.ids.empty());
  for (Algorithm algo : algos) {
    QueryResult r = engine.Run(MakeSpec(QueryMode::kUtk1, algo, k, region));
    ASSERT_TRUE(r.ok) << AlgorithmName(algo) << ": " << r.error;
    EXPECT_EQ(r.algorithm, algo);
    EXPECT_EQ(r.ids, reference.ids) << "algorithm " << AlgorithmName(algo);
  }
}

// UTK2 through kAuto must be JAA's arrangement: same distinct top-k set
// count, same record union. The baselines' per-record decomposition covers
// the same records (its AllRecords is the UTK1 answer).
TEST_P(EngineParityTest, Utk2DecompositionsAgree) {
  const auto dist = static_cast<Distribution>(std::get<0>(GetParam()));
  const int k = std::get<1>(GetParam());
  Engine engine(MakeData(dist));
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.25}, {0.3, 0.35});

  QueryResult jaa =
      engine.Run(MakeSpec(QueryMode::kUtk2, Algorithm::kJaa, k, region));
  QueryResult autod =
      engine.Run(MakeSpec(QueryMode::kUtk2, Algorithm::kAuto, k, region));
  ASSERT_TRUE(jaa.ok) << jaa.error;
  ASSERT_TRUE(autod.ok) << autod.error;
  EXPECT_EQ(autod.algorithm, Algorithm::kJaa);
  EXPECT_EQ(autod.utk2.NumDistinctTopkSets(), jaa.utk2.NumDistinctTopkSets());
  EXPECT_EQ(autod.ids, jaa.ids);

  QueryResult utk1 =
      engine.Run(MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, k, region));
  ASSERT_TRUE(utk1.ok) << utk1.error;
  EXPECT_EQ(jaa.ids, utk1.ids);
  for (Algorithm algo : {Algorithm::kBaselineSk, Algorithm::kBaselineOn}) {
    QueryResult b = engine.Run(MakeSpec(QueryMode::kUtk2, algo, k, region));
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_GE(b.per_record.TotalCells(), static_cast<int64_t>(b.ids.size()));
    EXPECT_EQ(b.ids, utk1.ids) << "algorithm " << AlgorithmName(algo);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineParityTest,
    ::testing::Combine(::testing::Values(0, 1, 2),  // IND / COR / ANTI
                       ::testing::Values(1, 3, 5)));

TEST(EngineAuto, PlansRsaAndJaaAtEverySize) {
  Engine big(Generate(Distribution::kIndependent, 500, 4, 7));
  QuerySpec spec;
  spec.region = ConvexRegion::FromBox({0.2, 0.2, 0.2}, {0.3, 0.3, 0.3});
  spec.mode = QueryMode::kUtk1;
  EXPECT_EQ(big.Plan(spec), Algorithm::kRsa);
  spec.mode = QueryMode::kUtk2;
  EXPECT_EQ(big.Plan(spec), Algorithm::kJaa);
  // Explicit choices are never overridden.
  spec.algorithm = Algorithm::kBaselineOn;
  EXPECT_EQ(big.Plan(spec), Algorithm::kBaselineOn);

  // Tiny inputs plan the same way: no size threshold.
  Engine tiny(Generate(Distribution::kIndependent, 30, 3, 7));
  QuerySpec tiny_spec;
  tiny_spec.mode = QueryMode::kUtk1;
  tiny_spec.region = ConvexRegion::FromBox({0.2, 0.2}, {0.3, 0.3});
  EXPECT_EQ(tiny.Plan(tiny_spec), Algorithm::kRsa);
  tiny_spec.k = 3;
  QueryResult r = tiny.Run(tiny_spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.algorithm, Algorithm::kRsa);
  // The paper algorithm's answer must match the oracle's.
  tiny_spec.algorithm = Algorithm::kNaive;
  EXPECT_EQ(tiny.Run(tiny_spec).ids, r.ids);
}

TEST(EngineBatch, MatchesSequentialForAnyThreadCount) {
  Engine engine(Generate(Distribution::kIndependent, 250, 3, 99));
  auto regions = QueryBatch(2, 0.08, 6, 4321);
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < regions.size(); ++i) {
    // Alternate modes and algorithms so the batch is heterogeneous.
    specs.push_back(MakeSpec(i % 2 == 0 ? QueryMode::kUtk1 : QueryMode::kUtk2,
                             Algorithm::kAuto, 3 + static_cast<int>(i % 2),
                             regions[i]));
  }

  std::vector<QueryResult> sequential;
  QueryStats sum;
  for (const QuerySpec& spec : specs) {
    sequential.push_back(engine.Run(spec));
    sum += sequential.back().stats;
  }

  for (int threads : {1, 2, 8}) {
    BatchQueryResult batch = engine.RunBatch(specs, threads);
    ASSERT_EQ(batch.results.size(), specs.size());
    EXPECT_EQ(batch.failed, 0);
    for (size_t i = 0; i < specs.size(); ++i) {
      const QueryResult& got = batch.results[i];
      ASSERT_TRUE(got.ok) << got.error;
      EXPECT_EQ(got.algorithm, sequential[i].algorithm) << i;
      EXPECT_EQ(got.ids, sequential[i].ids) << "threads " << threads;
      EXPECT_EQ(got.utk2.NumDistinctTopkSets(),
                sequential[i].utk2.NumDistinctTopkSets());
      EXPECT_EQ(got.stats.lp_calls, sequential[i].stats.lp_calls);
    }
    // Merged stats are the per-query sums, independent of thread count.
    EXPECT_EQ(batch.total.lp_calls, sum.lp_calls);
    EXPECT_EQ(batch.total.cells_created, sum.cells_created);
    EXPECT_EQ(batch.total.candidates, sum.candidates);
  }
}

TEST(EngineBatch, FailedSpecsAreCountedNotFatal) {
  Engine engine(Generate(Distribution::kIndependent, 100, 3, 5));
  std::vector<QuerySpec> specs(3);
  specs[0] = MakeSpec(QueryMode::kUtk1, Algorithm::kAuto, 3,
                      ConvexRegion::FromBox({0.2, 0.2}, {0.3, 0.3}));
  specs[1] = MakeSpec(QueryMode::kUtk2, Algorithm::kRsa, 3,  // invalid combo
                      ConvexRegion::FromBox({0.2, 0.2}, {0.3, 0.3}));
  specs[2] = MakeSpec(QueryMode::kUtk1, Algorithm::kAuto, 0,  // bad k
                      ConvexRegion::FromBox({0.2, 0.2}, {0.3, 0.3}));
  BatchQueryResult batch = engine.RunBatch(specs, 2);
  EXPECT_EQ(batch.failed, 2);
  EXPECT_TRUE(batch.results[0].ok);
  EXPECT_FALSE(batch.results[1].ok);
  EXPECT_FALSE(batch.results[2].ok);
}

TEST(EngineValidation, RejectsBadSpecsWithDiagnostics) {
  Engine engine(Generate(Distribution::kIndependent, 100, 3, 5));
  ConvexRegion good = ConvexRegion::FromBox({0.2, 0.2}, {0.3, 0.3});

  QueryResult r =
      engine.Run(MakeSpec(QueryMode::kUtk2, Algorithm::kRsa, 3, good));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("UTK1"), std::string::npos);

  r = engine.Run(MakeSpec(QueryMode::kUtk2, Algorithm::kNaive, 3, good));
  EXPECT_FALSE(r.ok);

  r = engine.Run(MakeSpec(QueryMode::kUtk1, Algorithm::kAuto, 0, good));
  EXPECT_FALSE(r.ok);

  // Region dimensionality must match the dataset's preference domain.
  r = engine.Run(MakeSpec(QueryMode::kUtk1, Algorithm::kAuto, 3,
                          ConvexRegion::FromBox({0.2}, {0.3})));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("preference dims"), std::string::npos);

  // Empty-interior region (lo > hi collapses the box).
  r = engine.Run(MakeSpec(QueryMode::kUtk1, Algorithm::kAuto, 3,
                          ConvexRegion::FromBox({0.3, 0.3}, {0.2, 0.2})));
  EXPECT_FALSE(r.ok);
}

TEST(EngineValidation, RejectsNonFiniteDataset) {
  Dataset data = Generate(Distribution::kIndependent, 100, 3, 5);
  data[10].attrs[1] = std::numeric_limits<Scalar>::quiet_NaN();
  Engine engine(std::move(data));
  const ConvexRegion box = ConvexRegion::FromBox({0.2, 0.2}, {0.3, 0.3});
  for (QueryMode mode : {QueryMode::kUtk1, QueryMode::kUtk2}) {
    const QuerySpec spec = MakeSpec(mode, Algorithm::kAuto, 3, box);
    std::optional<std::string> error = engine.Validate(spec);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(*error, "record 10 attribute 1 is not finite");
    QueryResult r = engine.Run(spec);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "record 10 attribute 1 is not finite");
  }
  // The empty-dataset rule still comes first, with its own message.
  EXPECT_EQ(Engine(Dataset{}).Validate(MakeSpec(QueryMode::kUtk1,
                                                Algorithm::kAuto, 3, box)),
            "engine holds an empty dataset");
}

TEST(EngineValidation, SpecKnobsReachTheAlgorithms) {
  Engine engine(Generate(Distribution::kAnticorrelated, 200, 3, 11));
  QuerySpec spec = MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, 4,
                            ConvexRegion::FromBox({0.2, 0.25}, {0.3, 0.35}));
  QueryResult base = engine.Run(spec);
  ASSERT_TRUE(base.ok) << base.error;

  // The knobs change the work done, never the answer.
  QuerySpec tweaked = spec;
  tweaked.use_drill = false;
  tweaked.use_lemma1 = false;
  tweaked.wave_cap = 3;
  QueryResult r = engine.Run(tweaked);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.ids, base.ids);
  // Drills and Verify calls, not LPs: vertex certificates settle nearly
  // every side either way, so both runs solve about one LP.
  EXPECT_NE(r.stats.drills, base.stats.drills);
  EXPECT_NE(r.stats.verify_calls, base.stats.verify_calls);
}

TEST(EngineValidation, RejectsNegativeWaveCap) {
  // A negative cap is not 0 (uncapped, exponential on ANTI data): it is
  // refused rather than run uncapped.
  Engine engine(Generate(Distribution::kAnticorrelated, 200, 3, 11));
  QuerySpec spec = MakeSpec(QueryMode::kUtk2, Algorithm::kAuto, 4,
                            ConvexRegion::FromBox({0.2, 0.25}, {0.3, 0.35}));
  spec.wave_cap = -1;
  std::optional<std::string> error = engine.Validate(spec);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(*error, "wave_cap must be >= 0");
  QueryResult r = engine.Run(spec);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "wave_cap must be >= 0");
}

TEST(EngineTopK, MatchesScanBasedTopK) {
  Engine engine(Generate(Distribution::kIndependent, 300, 4, 13));
  const Vec w = {0.3, 0.25, 0.2};
  EXPECT_EQ(engine.TopK(w, 10), TopK(engine.data(), w, 10));
}

TEST(EngineCsv, FromCsvFileRoundTrips) {
  Dataset data = Generate(Distribution::kIndependent, 90, 3, 31);
  const std::string path = ::testing::TempDir() + "/utk_engine_roundtrip.csv";
  ASSERT_TRUE(SaveCsvFile(data, path));

  std::optional<Engine> loaded = Engine::FromCsvFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 90);
  EXPECT_EQ(loaded->dim(), 3);

  Engine direct(std::move(data));
  QuerySpec spec = MakeSpec(QueryMode::kUtk1, Algorithm::kAuto, 3,
                            ConvexRegion::FromBox({0.2, 0.25}, {0.35, 0.4}));
  EXPECT_EQ(loaded->Run(spec).ids, direct.Run(spec).ids);
  std::remove(path.c_str());

  EXPECT_FALSE(Engine::FromCsvFile("/nonexistent/file.csv").has_value());
}

TEST(EngineNames, RoundTrip) {
  const Algorithm algos[] = {Algorithm::kAuto,       Algorithm::kRsa,
                             Algorithm::kJaa,        Algorithm::kBaselineSk,
                             Algorithm::kBaselineOn, Algorithm::kNaive};
  for (Algorithm algo : algos) {
    auto parsed = ParseAlgorithm(AlgorithmName(algo));
    ASSERT_TRUE(parsed.has_value()) << AlgorithmName(algo);
    EXPECT_EQ(*parsed, algo);
  }
  EXPECT_FALSE(ParseAlgorithm("quantum").has_value());
  EXPECT_STREQ(QueryModeName(QueryMode::kUtk1), "UTK1");
  EXPECT_STREQ(QueryModeName(QueryMode::kUtk2), "UTK2");
}

}  // namespace
}  // namespace utk
