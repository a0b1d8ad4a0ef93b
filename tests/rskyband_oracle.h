// The r-skyband BBS without the k-th-best score bound: ComputeRSkyband
// (skyline/rskyband.cc) as it was before the bound, with its r-dominance
// dispatcher, kept as the oracle the bound is checked against.
//
// The bounded filter may skip a node or a record only when this BBS would
// reject every record it holds anyway, so both must emit the same members
// in the same order with the same dominator lists, and the bounded one may
// pop no more entries than this one (tests/test_rskyband_bound.cc).
#ifndef UTK_TESTS_RSKYBAND_ORACLE_H_
#define UTK_TESTS_RSKYBAND_ORACLE_H_

#include <algorithm>
#include <cassert>
#include <optional>
#include <queue>
#include <vector>

#include "exec/kernels.h"
#include "geometry/linear.h"
#include "skyline/rdominance.h"
#include "skyline/rskyband.h"

namespace utk {

namespace rskyband_oracle {

struct HeapEntry {
  Scalar key;
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

inline Scalar CornerScore(const Vec& corner, const Vec& pivot) {
  Record tmp;
  tmp.attrs = corner;
  return Score(tmp, pivot);
}

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

inline RSkybandResult ComputeRSkyband(const Dataset& data, const RTree& tree,
                                      const ConvexRegion& r, int k,
                                      QueryStats* stats = nullptr,
                                      const ColumnStore* cols = nullptr) {
  RSkybandResult result;
  auto pivot = r.Pivot();
  assert(pivot.has_value() && "query region has empty interior");
  result.pivot = *pivot;
  if (tree.empty()) return result;

  const bool soa = cols != nullptr && !cols->empty();
  RDomDispatch rdom(data, r, cols, stats);

  // Confirmed members pop (and append) in decreasing pivot-score order, so
  // their score list is born sorted. Together with the heap key (an entry's
  // pivot score) this admits an exact early break in the corner scan below:
  // r-dominating an optimistic corner requires a region-wide gap >= -kEps
  // (rdominance.h), and the pivot lies in R, so a member whose pivot score
  // falls kEps below the entry's key — and everything after it — can be
  // skipped wholesale.
  std::vector<Scalar> member_score;

  // Leaf-scan scratch: one batched ScoreBatch per popped leaf instead of a
  // Score() pointer chase per record.
  std::vector<Scalar> leaf_scores;

  std::priority_queue<HeapEntry> heap;
  heap.push({CornerScore(tree.node(tree.root()).mbb.TopCorner(), result.pivot),
             false, tree.root()});

  while (!heap.empty()) {
    HeapEntry e = heap.top();
    heap.pop();
    if (stats != nullptr) ++stats->heap_pops;
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
        if (soa) {
          leaf_scores.resize(node.record_ids.size());
          ScoreBatch(*cols, result.pivot, node.record_ids,
                     leaf_scores.data());
          for (size_t i = 0; i < node.record_ids.size(); ++i)
            heap.push({leaf_scores[i], true, node.record_ids[i]});
        } else {
          for (int32_t rid : node.record_ids)
            heap.push({Score(data[rid], result.pivot), true, rid});
        }
      } else {
        for (int32_t child : node.entries)
          heap.push({CornerScore(tree.node(child).mbb.TopCorner(),
                                 result.pivot),
                     false, child});
      }
    }
  }
  if (stats != nullptr)
    stats->candidates = static_cast<int64_t>(result.ids.size());
  return result;
}

}  // namespace rskyband_oracle

}  // namespace utk

#endif  // UTK_TESTS_RSKYBAND_ORACLE_H_
