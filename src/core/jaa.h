// JAA — the Joint Arrangement Algorithm for UTK2 (Section 5).
//
// JAA shares RSA's filtering step (r-skyband + r-dominance graph) but builds
// one *common global arrangement* of R. An anchor record partitions the
// current region via the verification-like process of Section 4.2, the
// refinement core RSA also runs (core/refine.h), with no drill and no early
// exit. Each cell is settled by the anchor's rank there:
//   equal-to      anchor ranks exactly `need`  -> top-k known, emitted
//   less-than     anchor ranks above `need`    -> recurse with a longer
//                                                 known top prefix
//   greater-than  anchor ranks below `need`    -> recurse excluding the
//                                                 anchor and its descendants
// The anchor choosing strategy (Section 5.1) picks the `need`-th best record
// at a drill vector inside the partition, guaranteeing at least one equal-to
// sub-partition per anchor.
#ifndef UTK_CORE_JAA_H_
#define UTK_CORE_JAA_H_

#include "core/refine.h"
#include "core/utk.h"
#include "index/rtree.h"
#include "skyline/rskyband.h"

namespace utk {

class Jaa {
 public:
  using Options = RefineOptions;

  Jaa() = default;
  explicit Jaa(Options options) : options_(options) {}

  /// Answers UTK2 for `data` (indexed by `tree`), parameter `k`, region `r`.
  /// `cols`, when non-null, must mirror `data`; the filtering step then
  /// runs its columnar fast paths (see Rsa::Run).
  Utk2Result Run(const Dataset& data, const RTree& tree, const ConvexRegion& r,
                 int k, const ColumnStore* cols = nullptr) const;

  /// Refinement only: builds the common global arrangement from an
  /// already-computed filter output (see Rsa::RunFiltered for the band
  /// contract).
  Utk2Result RunFiltered(const Dataset& data, const RSkybandResult& band,
                         const ConvexRegion& r, int k) const;

 private:
  Options options_ = {};
};

}  // namespace utk

#endif  // UTK_CORE_JAA_H_
