// Plain top-k queries over the dataset (Section 1) and the incremental
// variant used by the Figure 10(b) comparison.
#ifndef UTK_CORE_TOPK_H_
#define UTK_CORE_TOPK_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "exec/column_store.h"
#include "index/rtree.h"

namespace utk {

/// The k highest-scoring record ids for reduced weight vector w, best first.
/// Ties at the boundary are broken by record id for determinism.
std::vector<int32_t> TopK(const Dataset& data, const Vec& w, int k);

/// Index-based top-k: branch-and-bound over the R-tree with a max-heap keyed
/// by the score upper bound of each subtree (its MBB top corner). Visits
/// only the nodes whose bound exceeds the running k-th score — the classic
/// way to answer top-k without scanning the dataset. Same output contract
/// as TopK (best first, id tie-break). `cols`, when non-null, must mirror
/// `data`; popped leaves are then scored through the batched ScoreBatch
/// kernel (bit-identical, see exec/kernels.h). Every engine's TopK runs
/// here.
std::vector<int32_t> TopKRTree(const Dataset& data, const RTree& tree,
                               const Vec& w, int k,
                               QueryStats* stats = nullptr,
                               const ColumnStore* cols = nullptr);

/// Incremental top-k: ranks the whole dataset for w (best first) so callers
/// can probe ever-larger prefixes, as in the "can a larger k simulate UTK1?"
/// experiment (Figure 10(b)).
class IncrementalTopK {
 public:
  IncrementalTopK(const Dataset& data, const Vec& w);

  /// The i-th best record id (0-based).
  int32_t Get(int i) const { return order_[i]; }
  int size() const { return static_cast<int>(order_.size()); }

  /// Smallest prefix length whose record set covers `targets`.
  int PrefixCovering(const std::vector<int32_t>& targets) const;

 private:
  std::vector<int32_t> order_;
};

}  // namespace utk

#endif  // UTK_CORE_TOPK_H_
