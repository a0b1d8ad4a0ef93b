// Differential tests for the columnar data plane (src/exec/).
//
// Every batched kernel must match its scalar AoS reference BIT-FOR-BIT —
// not approximately — across dimensions 2..7, attribute extremes, and
// duplicate records. Bit equality is what lets the engines run the SoA
// path unconditionally while the differential fuzz (test_differential.cc)
// keeps comparing their answers byte-for-byte against each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "exec/column_store.h"
#include "exec/kernels.h"
#include "exec/simd.h"
#include "geometry/linear.h"
#include "skyline/dominance.h"
#include "skyline/rdominance.h"

namespace utk {
namespace {

// Restores the ambient SIMD tier when a tier-looping test exits.
class TierGuard {
 public:
  TierGuard() : saved_(ActiveSimdTier()) {}
  ~TierGuard() { SetSimdTier(saved_); }

 private:
  SimdTier saved_;
};

// The tiers this host can actually run: always scalar, plus AVX2 when the
// CPU has it.
std::vector<SimdTier> HostTiers() {
  std::vector<SimdTier> tiers{SimdTier::kScalar};
  if (BestSupportedSimdTier() != SimdTier::kScalar)
    tiers.push_back(BestSupportedSimdTier());
  return tiers;
}

// Draws datasets that stress the kernels: random attributes plus injected
// extremes (all-zero, all-one rows) and exact duplicates.
Dataset MakeStressData(int n, int dim, uint64_t seed) {
  Dataset data = Generate(Distribution::kIndependent, n, dim, seed);
  // Extremes.
  data[0].attrs.assign(dim, 0.0);
  data[1].attrs.assign(dim, 1.0);
  // Exact duplicates, including of an extreme row.
  data[2].attrs = data[1].attrs;
  data[3].attrs = data[n / 2].attrs;
  return data;
}

Vec RandomWeights(int pref_dim, Rng& rng) {
  Vec w(pref_dim);
  Scalar budget = 1.0;
  for (int i = 0; i < pref_dim; ++i) {
    w[i] = rng.Uniform(0.0, budget / pref_dim);
    budget -= w[i];
  }
  return w;
}

TEST(ExecKernels, ScoreAllBitEqualToScalarScore) {
  Rng rng(101);
  for (int dim = 2; dim <= 7; ++dim) {
    Dataset data = MakeStressData(257, dim, 900 + dim);
    ColumnStore cols(data);
    for (int trial = 0; trial < 5; ++trial) {
      const Vec w = RandomWeights(dim - 1, rng);
      std::vector<Scalar> batched(data.size());
      ScoreAll(cols, w, batched.data());
      for (size_t i = 0; i < data.size(); ++i) {
        // Bitwise equality: EXPECT_EQ on doubles, not EXPECT_NEAR.
        EXPECT_EQ(batched[i], Score(data[i], w))
            << "dim " << dim << " row " << i;
      }
    }
  }
}

TEST(ExecKernels, ScoreBatchGatherBitEqualToScalarScore) {
  Rng rng(102);
  for (int dim = 2; dim <= 7; ++dim) {
    Dataset data = MakeStressData(181, dim, 1800 + dim);
    ColumnStore cols(data);
    // A shuffled, duplicated gather list.
    std::vector<int32_t> rows;
    for (int32_t i = 0; i < static_cast<int32_t>(data.size()); i += 2)
      rows.push_back(i);
    rows.push_back(0);
    rows.push_back(0);
    std::shuffle(rows.begin(), rows.end(), rng.engine());
    const Vec w = RandomWeights(dim - 1, rng);
    std::vector<Scalar> batched(rows.size());
    ScoreBatch(cols, w, rows, batched.data());
    for (size_t j = 0; j < rows.size(); ++j)
      EXPECT_EQ(batched[j], Score(data[rows[j]], w)) << "dim " << dim;
  }
}

TEST(ExecKernels, GatheredStoreMirrorsSubset) {
  Dataset data = MakeStressData(64, 4, 7);
  std::vector<int32_t> ids = {5, 1, 63, 1, 0};
  ColumnStore gathered(data, ids);
  ASSERT_EQ(gathered.size(), static_cast<int32_t>(ids.size()));
  for (size_t j = 0; j < ids.size(); ++j)
    for (int d = 0; d < 4; ++d)
      EXPECT_EQ(gathered.at(static_cast<int32_t>(j), d),
                data[ids[j]].attrs[d]);
}

TEST(ExecKernels, DominatedCountsMatchScalarDominates) {
  Rng rng(104);
  for (int dim = 2; dim <= 7; ++dim) {
    Dataset data = MakeStressData(97, dim, 4400 + dim);
    ColumnStore cols(data);
    std::vector<int32_t> all(data.size());
    for (int32_t i = 0; i < static_cast<int32_t>(data.size()); ++i)
      all[i] = i;
    for (int cap : {1, 2, 3, 5, 1000}) {
      std::vector<int32_t> got(all.size());
      DominatedCounts(cols, all, all, cap, kEps, got.data());
      for (size_t j = 0; j < all.size(); ++j) {
        int want = 0;
        for (int32_t r : all) {
          if (r == all[j]) continue;
          if (Dominates(data[r].attrs, data[all[j]].attrs) && ++want >= cap)
            break;
        }
        EXPECT_EQ(got[j], want) << "dim " << dim << " cap " << cap;
      }
    }
  }
}

TEST(ExecKernels, CountDominatorsOfPointMatchesScalarLoop) {
  Rng rng(105);
  for (int dim = 2; dim <= 7; ++dim) {
    Dataset data = MakeStressData(97, dim, 5500 + dim);
    ColumnStore cols(data);
    std::vector<int32_t> rows(data.size());
    for (int32_t i = 0; i < static_cast<int32_t>(data.size()); ++i)
      rows[i] = i;
    for (int trial = 0; trial < 8; ++trial) {
      Vec v(dim);
      for (int d = 0; d < dim; ++d) v[d] = rng.Uniform();
      if (trial == 0) v = data[4].attrs;  // probe AT a record (exact ties)
      for (int cap : {1, 2, 5, 1000}) {
        int want = 0;
        for (int32_t r : rows) {
          if (Dominates(data[r].attrs, v) && ++want >= cap) break;
        }
        want = std::min(want, cap);
        EXPECT_EQ(CountDominatorsOfPoint(cols, rows, v, cap, kEps), want)
            << "dim " << dim << " cap " << cap;
      }
    }
  }
}

TEST(ExecKernels, BoxGapRangeBitEqualToRDominancePath) {
  Rng rng(106);
  for (int dim = 2; dim <= 7; ++dim) {
    Dataset data = MakeStressData(61, dim, 6600 + dim);
    ColumnStore cols(data);
    // A box region strictly inside the simplex.
    Vec lo(dim - 1), hi(dim - 1);
    for (int i = 0; i < dim - 1; ++i) {
      lo[i] = 0.05 + 0.4 * i / std::max(1, dim - 1) / (dim - 1);
      hi[i] = lo[i] + 0.2 / (dim - 1);
    }
    const ConvexRegion r = ConvexRegion::FromBox(lo, hi);
    ASSERT_TRUE(r.is_box());
    BoxGapEvaluator gap(cols, r);
    ASSERT_TRUE(gap.valid());
    for (int trial = 0; trial < 200; ++trial) {
      const int32_t p = rng.UniformInt(0, 60), q = rng.UniformInt(0, 60);
      // The reference: RDominance's own arithmetic (DiffScore + RangeOf).
      const RDom want = RDominance(data[p], data[q], r);
      const auto [glo, ghi] = gap.Range(p, q);
      EXPECT_EQ(ClassifyScoreRange(glo, ghi), want) << "dim " << dim;
      // The row-vs-corner form agrees with the row-row form.
      const auto [clo, chi] = gap.Range(p, data[q].attrs);
      EXPECT_EQ(clo, glo);
      EXPECT_EQ(chi, ghi);
    }
  }
}

TEST(ExecKernels, SetRowAppendsAndOverwrites) {
  ColumnStore cols;
  EXPECT_TRUE(cols.empty());
  cols.SetRow(0, {1.0, 2.0, 3.0});
  cols.SetRow(1, {4.0, 5.0, 6.0});
  EXPECT_EQ(cols.size(), 2);
  EXPECT_EQ(cols.dim(), 3);
  EXPECT_EQ(cols.at(1, 2), 6.0);
  cols.SetRow(0, {7.0, 8.0, 9.0});  // overwrite (the tombstone-revival path)
  EXPECT_EQ(cols.size(), 2);
  EXPECT_EQ(cols.at(0, 0), 7.0);
  EXPECT_EQ(cols.at(1, 0), 4.0);
  // Scores through the mutated store still match the scalar reference.
  Record rec;
  rec.attrs = {7.0, 8.0, 9.0};
  const Vec w = {0.25, 0.5};
  Scalar out[2];
  ScoreAll(cols, w, out);
  EXPECT_EQ(out[0], Score(rec, w));
}

TEST(ExecSimd, TiersBitEqualOnTailsAndUnalignedGathers) {
  // The vector ScoreBatch must reproduce the scalar kernel bit for bit on
  // the awkward shapes: gather lists of odd length at odd, unaligned
  // positions with a duplicated row, which leave a tail at width 4.
  TierGuard guard;
  Rng rng(501);
  for (int dim = 2; dim <= 7; ++dim) {
    Dataset data = MakeStressData(257, dim, 7100 + dim);
    ColumnStore cols(data);
    const Vec w = RandomWeights(dim - 1, rng);

    std::vector<int32_t> rows;  // odd count, unaligned, duplicated
    for (int32_t i = 1; i < 250; i += 3) rows.push_back(i);
    rows.push_back(rows[0]);

    SetSimdTier(SimdTier::kScalar);
    std::vector<Scalar> want(rows.size());
    ScoreBatch(cols, w, rows, want.data());
    for (SimdTier tier : HostTiers()) {
      SetSimdTier(tier);
      std::vector<Scalar> got(rows.size(), -1.0);
      ScoreBatch(cols, w, rows, got.data());
      for (size_t j = 0; j < rows.size(); ++j)
        ASSERT_EQ(got[j], want[j])
            << SimdTierName(tier) << " dim " << dim << " lane " << j;
    }
  }
}

TEST(ExecSimd, GatheredKernelsHandleAllDeadBlocks) {
  // A liveness filter that tombstones entire 1024-row blocks hands the
  // gathered kernels row lists with kilorow-sized holes. Every tier of
  // ScoreBatch must agree bit-for-bit with the scalar tier on such lists,
  // the dominance kernels with the AoS loops, and a fully-dead list must
  // be a clean no-op.
  TierGuard guard;
  Rng rng(117);
  constexpr int32_t kBlockRows = 1024;
  const int32_t n = 4 * kBlockRows + 37;  // 4 full blocks + tail
  for (int dim : {2, 4, 7}) {
    Dataset data = MakeStressData(n, dim, 5200 + dim);
    ColumnStore cols(data);
    // Blocks 1 and 3 are all dead; elsewhere every 9th row is dead too.
    std::vector<int32_t> alive;
    for (int32_t i = 0; i < n; ++i) {
      const int32_t block = i / kBlockRows;
      if (block == 1 || block == 3) continue;
      if (i % 9 == 0) continue;
      alive.push_back(i);
    }
    const Vec w = RandomWeights(dim - 1, rng);
    const Vec probe = data[n / 2].attrs;

    SetSimdTier(SimdTier::kScalar);
    std::vector<Scalar> want_scores(alive.size());
    ScoreBatch(cols, w, alive, want_scores.data());
    std::vector<int32_t> counts(alive.size());
    DominatedCounts(cols, alive, alive, 3, kEps, counts.data());
    // Anchor the scalar kernels against the AoS loops on a sample, without
    // an O(n^2) full sweep.
    for (size_t j = 0; j < alive.size(); j += 257) {
      EXPECT_EQ(want_scores[j], Score(data[alive[j]], w)) << "dim " << dim;
      int aos = 0;
      for (int32_t r : alive) {
        if (r == alive[j]) continue;
        if (Dominates(data[r].attrs, data[alive[j]].attrs) && ++aos >= 3)
          break;
      }
      EXPECT_EQ(counts[j], aos) << "dim " << dim << " j " << j;
    }
    int want_doms = 0;
    for (int32_t r : alive) {
      if (Dominates(data[r].attrs, probe) && ++want_doms >= 5) break;
    }
    EXPECT_EQ(CountDominatorsOfPoint(cols, alive, probe, 5, kEps), want_doms)
        << "dim " << dim;

    // Everything dead: the kernels must not touch the output buffers.
    const std::vector<int32_t> none;
    int32_t count_sentinel = -7;
    DominatedCounts(cols, none, alive, 3, kEps, &count_sentinel);
    EXPECT_EQ(count_sentinel, -7) << "dim " << dim;
    EXPECT_EQ(CountDominatorsOfPoint(cols, none, probe, 5, kEps), 0)
        << "dim " << dim;

    for (SimdTier tier : HostTiers()) {
      SetSimdTier(tier);
      std::vector<Scalar> scores(alive.size());
      ScoreBatch(cols, w, alive, scores.data());
      EXPECT_EQ(scores, want_scores) << "dim " << dim;
      Scalar sentinel = -42.0;
      ScoreBatch(cols, w, none, &sentinel);
      EXPECT_EQ(sentinel, -42.0) << "dim " << dim;
    }
  }
}

}  // namespace
}  // namespace utk
