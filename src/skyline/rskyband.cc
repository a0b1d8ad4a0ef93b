#include "skyline/rskyband.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <optional>
#include <queue>
#include <utility>

#include "exec/kernels.h"
#include "geometry/linear.h"
#include "obs/trace.h"
#include "skyline/rdominance.h"

namespace utk {

namespace {

struct HeapEntry {
  Scalar key;
  /// max_R S of the record, or of the node's top corner, while the score
  /// bound is on (R a box); unused otherwise.
  Scalar top;
  bool is_record;
  int32_t id;
  /// Max-heap priority: higher key; on equal keys nodes before records,
  /// then ascending id. No node can then hold a record that outranks one
  /// already popped, so records pop in (pivot score desc, id asc) order
  /// whatever the tree's shape (see RSkybandResult::ids).
  bool operator<(const HeapEntry& o) const {
    if (key != o.key) return key < o.key;
    if (is_record != o.is_record) return is_record;
    return id > o.id;
  }
};

/// Score(corner, pivot) in Score()'s arithmetic order, without copying the
/// corner into a Record: the heap keys, and so the pop order, stay
/// bit-identical.
Scalar CornerScore(const Vec& corner, const Vec& pivot) {
  const int d = static_cast<int>(corner.size());
  Scalar s = corner[d - 1];
  for (int i = 0; i < d - 1; ++i) s += pivot[i] * (corner[i] - corner[d - 1]);
  return s;
}

/// {min_R S, max_R S} of the attributes `p(0..d-1)` over the box R:
/// GapRange (exec/kernels.h) against the zero record.
template <typename Get>
std::pair<Scalar, Scalar> RegionScoreRange(int d, const Get& p,
                                           const ConvexRegion& r) {
  return GapRange(
      d, p, [](int) { return Scalar{0}; }, r.box_lo(), r.box_hi());
}

// The BBS's score bound (DESIGN.md §2): tau, the k-th largest region-minimum
// score among the records fed so far, kept in a k-entry min-heap. An entry
// whose region-maximum score falls more than the margin below tau is beaten
// everywhere in R by k records, and the unbounded BBS would reject every
// record it holds.
class KthBest {
 public:
  explicit KthBest(int k) : k_(k) {}

  void Add(Scalar v) {
    if (static_cast<int>(heap_.size()) < k_) {
      heap_.push(v);
    } else if (EpsGt(v, heap_.top(), 0.0)) {
      heap_.pop();
      heap_.push(v);
    }
  }

  /// True once k values were fed and `top` < tau - `margin`.
  bool Below(Scalar top, Scalar margin) const {
    return !heap_.empty() && static_cast<int>(heap_.size()) == k_ &&
           EpsLt(top, heap_.top(), margin);
  }

 private:
  int k_;
  std::priority_queue<Scalar, std::vector<Scalar>, std::greater<>> heap_;
};

// Per-query r-dominance dispatcher: the columnar box fast path when a
// mirroring ColumnStore is available and R is a box, the generic
// RDominance / RDominatesCorner otherwise. Both roads produce identical
// bits (ClassifyScoreRange is shared and BoxGapEvaluator replays
// DiffScore + RangeOf's arithmetic order).
class RDomDispatch {
 public:
  RDomDispatch(const Dataset& data, const ConvexRegion& r,
               const ColumnStore* cols, QueryStats* stats)
      : data_(data), r_(r), stats_(stats) {
    if (cols != nullptr && !cols->empty()) {
      gap_.emplace(*cols, r);
      if (!gap_->valid()) gap_.reset();
    }
  }

  /// RDominance(data[p], data[q], r) == kDominates.
  bool Dominates(int32_t p, int32_t q) const {
    if (gap_.has_value()) {
      if (stats_ != nullptr) ++stats_->rdom_tests;
      const auto [lo, hi] = gap_->Range(p, q);
      return ClassifyScoreRange(lo, hi) == RDom::kDominates;
    }
    return RDominance(data_[p], data_[q], r_, stats_) == RDom::kDominates;
  }

  /// RDominatesCorner(data[p], corner, r).
  bool DominatesCorner(int32_t p, const Vec& corner) const {
    if (gap_.has_value()) {
      if (stats_ != nullptr) ++stats_->rdom_tests;
      const auto [lo, hi] = gap_->Range(p, corner);
      return EpsGe(lo, 0.0) && EpsGt(hi, 0.0);
    }
    return RDominatesCorner(data_[p], corner, r_, stats_);
  }

 private:
  const Dataset& data_;
  const ConvexRegion& r_;
  QueryStats* stats_;
  std::optional<BoxGapEvaluator> gap_;
};

}  // namespace

RSkybandResult ComputeRSkyband(const Dataset& data, const RTree& tree,
                               const ConvexRegion& r, int k,
                               QueryStats* stats, const ColumnStore* cols) {
  UTK_SPAN("filter.rskyband");
  RSkybandResult result;
  auto pivot = r.Pivot();
  assert(pivot.has_value() && "query region has empty interior");
  result.pivot = *pivot;
  if (tree.empty()) return result;

  const bool soa = cols != nullptr && !cols->empty();
  RDomDispatch rdom(data, r, cols, stats);
  const Mbb& root_mbb = tree.node(tree.root()).mbb;
  const int d = static_cast<int>(root_mbb.hi.size());

  // The score bound needs min_R S and max_R S in closed form, so it runs
  // only over boxes. Its margin, 4 kEps max(1, A) with A the largest
  // |coordinate| in the tree, covers the r-dominance tolerance kEps and
  // the rounding of scores at scale A (DESIGN.md §2).
  const bool bounded = r.is_box() && k > 0;
  KthBest tau(k);
  Scalar scale = 1.0;
  for (int i = 0; i < d; ++i)
    scale = std::max({scale, std::abs(root_mbb.lo[i]),
                      std::abs(root_mbb.hi[i])});
  const Scalar margin = 4.0 * kEps * scale;

  // Confirmed members pop (and append) in decreasing pivot-score order, so
  // their score list is born sorted. Together with the heap key (an entry's
  // pivot score) this admits an exact early break in the corner scan below:
  // r-dominating an optimistic corner requires a region-wide gap >= -kEps
  // (rdominance.h), and the pivot lies in R, so a member whose pivot score
  // falls kEps below the entry's key — and everything after it — can be
  // skipped wholesale.
  std::vector<Scalar> member_score;

  // Leaf-scan scratch: one batched ScoreBatch per popped leaf instead of a
  // Score() pointer chase per record, and each record's region range.
  std::vector<Scalar> leaf_scores;
  std::vector<std::pair<Scalar, Scalar>> leaf_ranges;

  std::priority_queue<HeapEntry> heap;
  // Pushes a node unless the bound already rules it out.
  auto push_node = [&](int32_t id) {
    const Vec& corner = tree.node(id).mbb.TopCorner();
    Scalar top = 0.0;
    if (bounded) {
      top = RegionScoreRange(d, [&](int i) { return corner[i]; }, r).second;
      if (tau.Below(top, margin)) return;
    }
    heap.push({CornerScore(corner, result.pivot), top, false, id});
  };
  push_node(tree.root());

  while (!heap.empty()) {
    HeapEntry e = heap.top();
    heap.pop();
    if (stats != nullptr) ++stats->heap_pops;
    // tau has only risen since the entry was pushed.
    if (bounded && tau.Below(e.top, margin)) continue;
    if (e.is_record) {
      // Collect the confirmed members that r-dominate this record; keep it
      // if fewer than k do.
      std::vector<int> doms;
      bool pruned = false;
      for (size_t i = 0; i < result.ids.size() && !pruned; ++i) {
        if (rdom.Dominates(result.ids[i], e.id)) {
          doms.push_back(static_cast<int>(i));
          pruned = static_cast<int>(doms.size()) >= k;
        }
      }
      if (!pruned) {
        result.ids.push_back(e.id);
        result.dominators.push_back(std::move(doms));
        member_score.push_back(e.key);
      }
    } else {
      const RTreeNode& node = tree.node(e.id);
      // Prune the subtree if k members r-dominate its optimistic top corner.
      int count = 0;
      bool pruned = false;
      for (size_t i = 0; i < result.ids.size(); ++i) {
        if (member_score[i] < e.key - kEps) break;
        if (rdom.DominatesCorner(result.ids[i], node.mbb.TopCorner()) &&
            ++count >= k) {
          pruned = true;
          break;
        }
      }
      if (pruned) continue;
      if (node.is_leaf) {
        const size_t n = node.record_ids.size();
        leaf_scores.resize(n);
        if (soa) {
          ScoreBatch(*cols, result.pivot, node.record_ids,
                     leaf_scores.data());
        } else {
          for (size_t i = 0; i < n; ++i)
            leaf_scores[i] = Score(data[node.record_ids[i]], result.pivot);
        }
        if (bounded) {
          // Feed the whole leaf's minima first, so tau is as high as it
          // gets before any of its records is tested.
          leaf_ranges.resize(n);
          for (size_t i = 0; i < n; ++i) {
            const int32_t rid = node.record_ids[i];
            leaf_ranges[i] =
                soa ? RegionScoreRange(
                          d, [&](int j) { return cols->at(rid, j); }, r)
                    : RegionScoreRange(
                          d, [&](int j) { return data[rid].attrs[j]; }, r);
            tau.Add(leaf_ranges[i].first);
          }
        }
        for (size_t i = 0; i < n; ++i) {
          const Scalar top = bounded ? leaf_ranges[i].second : 0.0;
          if (bounded && tau.Below(top, margin)) continue;
          heap.push({leaf_scores[i], top, true, node.record_ids[i]});
        }
      } else {
        for (int32_t child : node.entries) push_node(child);
      }
    }
  }
  if (stats != nullptr)
    stats->candidates = static_cast<int64_t>(result.ids.size());
  return result;
}

std::vector<int32_t> RSkybandBruteForce(const Dataset& data,
                                        const ConvexRegion& r, int k) {
  std::vector<int32_t> band;
  for (const Record& p : data) {
    int count = 0;
    for (const Record& q : data) {
      if (q.id == p.id) continue;
      if (RDominance(q, p, r) == RDom::kDominates) ++count;
    }
    if (count < k) band.push_back(p.id);
  }
  return band;
}

}  // namespace utk
