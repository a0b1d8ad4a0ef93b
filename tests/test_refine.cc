// RSA and JAA each have two entry points: Run, which filters and refines
// (the one the engines call), and RunFiltered, which refines a band
// computed elsewhere (the one perfbench times). Both must refine the same
// way: equal answers and equal refinement counters, for the defaults and
// for each knob changed.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/jaa.h"
#include "core/rsa.h"
#include "data/generator.h"
#include "data/workload.h"
#include "index/rtree.h"
#include "skyline/rskyband.h"

namespace utk {
namespace {

enum class Knob { kDefaults, kNoDrill, kNoLemma1, kWaveCap3 };

Rsa::Options Knobs(Knob knob) {
  Rsa::Options o;
  if (knob == Knob::kNoDrill) o.use_drill = false;
  if (knob == Knob::kNoLemma1) o.use_lemma1 = false;
  if (knob == Knob::kWaveCap3) o.wave_cap = 3;
  return o;
}

// The refinement counters of `filtered` (a RunFiltered result, whose
// filter ran into `filter`) equal those of `run`.
void ExpectSameCounters(const QueryStats& run, const QueryStats& filtered,
                        const QueryStats& filter) {
  EXPECT_EQ(run.candidates, filtered.candidates);
  EXPECT_EQ(run.lp_calls, filtered.lp_calls + filter.lp_calls);
  EXPECT_EQ(run.drills, filtered.drills);
  EXPECT_EQ(run.verify_calls, filtered.verify_calls);
  EXPECT_EQ(run.cells_created, filtered.cells_created);
  EXPECT_EQ(run.halfspaces_inserted, filtered.halfspaces_inserted);
}

class RefineEntryPoints
    : public ::testing::TestWithParam<std::tuple<int, Knob>> {};

TEST_P(RefineEntryPoints, RunFilteredEqualsRun) {
  const auto [dim, knob] = GetParam();
  const Rsa::Options opt = Knobs(knob);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("d=" + std::to_string(dim) + " seed=" + std::to_string(seed));
    const Dataset data =
        Generate(Distribution::kAnticorrelated, 800, dim, 100 + seed);
    const RTree tree = RTree::BulkLoad(data);
    Rng rng(seed);
    const ConvexRegion region = RandomQueryBox(dim - 1, 0.06, rng);
    const int k = 3 + static_cast<int>(seed);
    QueryStats filter;
    const RSkybandResult band = ComputeRSkyband(data, tree, region, k, &filter);

    const Utk1Result rsa = Rsa(opt).Run(data, tree, region, k);
    const Utk1Result rsa_f = Rsa(opt).RunFiltered(data, band, region, k);
    EXPECT_EQ(rsa.ids, rsa_f.ids);
    ExpectSameCounters(rsa.stats, rsa_f.stats, filter);

    const Utk2Result jaa = Jaa(opt).Run(data, tree, region, k);
    const Utk2Result jaa_f = Jaa(opt).RunFiltered(data, band, region, k);
    EXPECT_GT(jaa.cells.size(), 1u) << "the draw must need refinement";
    ASSERT_EQ(jaa.cells.size(), jaa_f.cells.size());
    for (size_t c = 0; c < jaa.cells.size(); ++c) {
      EXPECT_EQ(jaa.cells[c].topk, jaa_f.cells[c].topk) << "cell " << c;
      EXPECT_EQ(jaa.cells[c].witness, jaa_f.cells[c].witness) << "cell " << c;
    }
    ExpectSameCounters(jaa.stats, jaa_f.stats, filter);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AntiDraws, RefineEntryPoints,
    ::testing::Combine(::testing::Values(3, 4),
                       ::testing::Values(Knob::kDefaults, Knob::kNoDrill,
                                         Knob::kNoLemma1, Knob::kWaveCap3)));

}  // namespace
}  // namespace utk
