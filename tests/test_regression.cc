// Golden regression tests: fixed seeds, exact expected outputs. These pin
// down end-to-end determinism (generator -> Engine -> RSA/JAA) so that
// refactors that change results get caught even when all invariants hold.
//
// The NBA case-study golden (tests/golden/nba_case_study.golden) freezes the
// published-figure outputs of examples/nba_case_study.cpp byte-for-byte.
// Regenerate deliberately with UTK_UPDATE_GOLDEN=1 after a change that is
// *supposed* to alter them, and review the diff like any other code change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "api/engine.h"
#include "core/naive.h"
#include "data/generator.h"
#include "data/realistic.h"
#include "skyline/onion.h"
#include "skyline/skyband.h"

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

TEST(Regression, Ind300K5) {
  Engine engine(Generate(Distribution::kIndependent, 300, 3, 20240612));
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.3}, {0.35, 0.45});
  QueryResult r =
      engine.Run(MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, 5, region));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.ids, NaiveUtk1(engine.data(), region, 5));  // self-validating
  EXPECT_EQ(r.ids.size(), 7u);
  QueryResult r2 =
      engine.Run(MakeSpec(QueryMode::kUtk2, Algorithm::kJaa, 5, region));
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r2.ids, r.ids);
  EXPECT_EQ(r2.utk2.NumDistinctTopkSets(), 3);
}

TEST(Regression, DeterministicAcrossRuns) {
  Dataset data = GenerateHotelLike(800, 99);
  for (Record& r : data) r.attrs.resize(3);
  Engine engine(std::move(data));
  QuerySpec spec =
      MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, 4,
               ConvexRegion::FromBox({0.25, 0.45}, {0.35, 0.55}));
  QueryResult a = engine.Run(spec);
  QueryResult b = engine.Run(spec);
  EXPECT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.stats.lp_calls, b.stats.lp_calls);
  EXPECT_EQ(a.stats.cells_created, b.stats.cells_created);
}

// The exact computation of examples/nba_case_study.cpp (Figure 9), rendered
// as a deterministic text block: UTK1 ids and filter sizes for 9(a), the
// canonical-order cell list for 9(b).
std::string RenderNbaCaseStudy() {
  auto project = [](const Dataset& full, std::vector<int> cols) {
    Dataset out;
    out.reserve(full.size());
    for (const Record& r : full) {
      Record p;
      p.id = r.id;
      for (int c : cols) p.attrs.push_back(r.attrs[c]);
      out.push_back(std::move(p));
    }
    return out;
  };
  Dataset league = GenerateNbaLike(500, 2017);
  std::ostringstream os;

  Engine engine2(project(league, {1, 0}));
  QuerySpec spec;
  spec.mode = QueryMode::kUtk1;
  spec.k = 3;
  spec.region = ConvexRegion::FromBox({0.64}, {0.74});
  QueryResult utk1 = engine2.Run(spec);
  QueryStats tmp;
  auto onion = OnionCandidates(engine2.data(), engine2.tree(), spec.k, &tmp);
  auto skyband = KSkyband(engine2.data(), engine2.tree(), spec.k);
  os << "fig9a utk1:";
  for (int32_t id : utk1.ids) os << ' ' << id;
  os << "\nfig9a onion=" << onion.size() << " skyband=" << skyband.size()
     << "\n";

  Engine engine3(project(league, {1, 0, 2}));
  spec.mode = QueryMode::kUtk2;
  spec.region = ConvexRegion::FromBox({0.2, 0.5}, {0.3, 0.6});
  QueryResult utk2 = engine3.Run(spec);
  os << "fig9b cells=" << utk2.utk2.cells.size()
     << " distinct=" << utk2.utk2.NumDistinctTopkSets() << " players:";
  for (int32_t id : utk2.ids) os << ' ' << id;
  os << "\n";
  for (const Utk2Cell& cell : utk2.utk2.cells) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "cell w=(%.4f,%.4f) topk:",
                  cell.witness[0], cell.witness[1]);
    os << buf;
    for (int32_t id : cell.topk) os << ' ' << id;
    os << "\n";
  }
  return os.str();
}

TEST(Regression, NbaCaseStudyGolden) {
  const std::string path =
      std::string(UTK_SOURCE_DIR) + "/tests/golden/nba_case_study.golden";
  const std::string rendered = RenderNbaCaseStudy();
  if (std::getenv("UTK_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    GTEST_SKIP() << "golden regenerated at " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run once with UTK_UPDATE_GOLDEN=1 to create it";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(rendered, golden.str())
      << "published-figure output drifted; if intentional, regenerate with "
         "UTK_UPDATE_GOLDEN=1 and review the diff";
}

TEST(Regression, FigureOneStatsEnvelope) {
  // The quickstart workload should stay cheap: a budget regression guard.
  Engine engine(FigureOneHotels());
  QueryResult r = engine.Run(
      MakeSpec(QueryMode::kUtk2, Algorithm::kJaa, 2,
               ConvexRegion::FromBox({0.05, 0.05}, {0.45, 0.25})));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.ids, (std::vector<int32_t>{0, 1, 3, 5}));
  EXPECT_LE(r.stats.lp_calls, 200);
  EXPECT_LE(r.stats.cells_created, 40);
}

// A UTK2 query whose arrangement once took a cell centre from a two-phase
// Chebyshev solve that misjudged a side: the side was kept with a radius
// whose ball crossed one of its bounds, so one cell (665 of 1,294) carried
// a witness outside the cell and a top-k that differs at that witness.
// Every centre now comes from a solve started at a feasible point, and
// every cell's top-k must equal the top-k at its witness.
TEST(Regression, Utk2WitnessTopKMatchesOnAntiBox) {
  Engine engine(Generate(Distribution::kAnticorrelated, 10000, 4, 4242));
  const ConvexRegion region = ConvexRegion::FromBox(
      {0.0075421445413936718, 0.022355491942181178, 0.89068917798431302},
      {0.027542144541393671, 0.042355491942181175, 0.91068917798431304});
  constexpr int kK = 10;
  QueryResult r =
      engine.Run(MakeSpec(QueryMode::kUtk2, Algorithm::kAuto, kK, region));
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_FALSE(r.utk2.cells.empty());
  for (size_t c = 0; c < r.utk2.cells.size(); ++c) {
    const Utk2Cell& cell = r.utk2.cells[c];
    std::vector<int32_t> got = cell.topk;
    std::vector<int32_t> want = engine.TopK(cell.witness, kK);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "cell " << c << " of " << r.utk2.cells.size();
  }
}

// A UTK2 query whose arrangement once dropped a sliver without a bound:
// a cut kept only one side of a cell because the other side's ball was
// thinner than kInteriorEps, the cell was recentred but no bound recorded
// the cut, and a later split moved the centre back into the sliver. One
// cell's witness then lay on the wrong side of a score hyperplane, so its
// top-k differed from the top-k at its witness. The kept side's half-space
// is now a bound of the cell.
TEST(Regression, Utk2WitnessTopKMatchesAfterSliverCut) {
  Engine engine(Generate(Distribution::kAnticorrelated, 10000, 4, 4242));
  const ConvexRegion region = ConvexRegion::FromBox(
      {0.12753301709833159, 0.13865927768223224, 0.59303570753778545},
      {0.14753301709833158, 0.15865927768223223, 0.61303570753778547});
  constexpr int kK = 10;
  QueryResult r =
      engine.Run(MakeSpec(QueryMode::kUtk2, Algorithm::kAuto, kK, region));
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_FALSE(r.utk2.cells.empty());
  for (size_t c = 0; c < r.utk2.cells.size(); ++c) {
    const Utk2Cell& cell = r.utk2.cells[c];
    std::vector<int32_t> got = cell.topk;
    std::vector<int32_t> want = engine.TopK(cell.witness, kK);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "cell " << c << " of " << r.utk2.cells.size();
  }
}

// A UTK2 query whose arrangement once left a cell uncovered by a cut that
// missed neither side by much: inside the zone of an anchor, a split left
// a child of radius 1.17e-7, and a record's half-space cut it 4.9e-8 from
// its centre. Neither side kept a ball of kInteriorEps, so Insert left the
// cell as it was, neither covered nor split, and JAA took the record as
// scoring below the anchor. It scored above it at the witness by far more
// than kEps, so the cell's top-k differed from the top-k at its witness.
// The side of the cached centre now decides whether the cut covers the
// cell.
TEST(Regression, Utk2WitnessTopKMatchesWhenNeitherSideIsInterior) {
  Engine engine(Generate(Distribution::kAnticorrelated, 10000, 4, 4242));
  const ConvexRegion region = ConvexRegion::FromBox(
      {0.18095823724995808, 0.14481399932596672, 0.47852868922063913},
      {0.20095823724995807, 0.16481399932596671, 0.49852868922063914});
  constexpr int kK = 10;
  QueryResult r =
      engine.Run(MakeSpec(QueryMode::kUtk2, Algorithm::kAuto, kK, region));
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_FALSE(r.utk2.cells.empty());
  for (size_t c = 0; c < r.utk2.cells.size(); ++c) {
    const Utk2Cell& cell = r.utk2.cells[c];
    std::vector<int32_t> got = cell.topk;
    std::vector<int32_t> want = engine.TopK(cell.witness, kK);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "cell " << c << " of " << r.utk2.cells.size();
  }
}

// A region given as raw half-spaces is not a FromBox box, so nothing clips
// it to the weight simplex. The box [0.5, 0.6]^3 has weights summing to
// 1.5-1.8, outside the simplex everywhere, yet Validate passed it and Run
// answered ok=true with 5 ids. Validate now clips non-box regions to the
// simplex before the interior test.
TEST(Regression, RawHalfspaceBoxOutsideTheSimplexIsRejected) {
  Engine engine(Generate(Distribution::kIndependent, 1000, 4, 7));
  std::vector<Halfspace> box;
  for (int i = 0; i < 3; ++i) {
    Halfspace upper, lower;
    upper.a.assign(3, 0.0);
    upper.a[i] = 1.0;
    upper.b = 0.6;
    lower.a.assign(3, 0.0);
    lower.a[i] = -1.0;
    lower.b = -0.5;
    box.push_back(std::move(upper));
    box.push_back(std::move(lower));
  }
  const QuerySpec spec =
      MakeSpec(QueryMode::kUtk1, Algorithm::kAuto, 5, ConvexRegion(box));
  ASSERT_FALSE(spec.region.is_box());
  const std::optional<std::string> error = engine.Validate(spec);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("weight simplex"), std::string::npos) << *error;
  const QueryResult r = engine.Run(spec);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.ids.empty());
}

}  // namespace
}  // namespace utk
