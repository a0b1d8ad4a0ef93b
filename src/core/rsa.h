// RSA — the r-Skyband Algorithm for UTK1 (Section 4).
//
// Filtering: compute the r-skyband and the r-dominance graph G (Section 4.1).
// Refinement: verify candidates one by one in descending r-dominance-count
// order; a verified candidate confirms all its ancestors in G for free, and
// a disqualified candidate is removed from G. Verification of a candidate
// partitions the region with the shared refinement core (core/refine.h):
// the strongest competitors' half-spaces, then Lemma 1 on each cell. RSA
// adds the rank quota, the drill (Section 4.3) and the early exit on the
// first cell that admits the candidate.
#ifndef UTK_CORE_RSA_H_
#define UTK_CORE_RSA_H_

#include "core/refine.h"
#include "core/utk.h"
#include "index/rtree.h"

namespace utk {

class Rsa {
 public:
  struct Options : RefineOptions {
    bool use_drill = true;  ///< drill optimization (Section 4.3)
  };

  Rsa() = default;
  explicit Rsa(Options options) : options_(options) {}

  /// Answers UTK1 for `data` (indexed by `tree`), parameter `k`, region `r`.
  /// `cols`, when non-null, must mirror `data` (exec/column_store.h); the
  /// filtering step then runs its columnar fast paths. Refinement always
  /// gathers its own band-local ColumnStore — the band is scored thousands
  /// of times, so the gather pays for itself immediately.
  Utk1Result Run(const Dataset& data, const RTree& tree,
                 const ConvexRegion& r, int k,
                 const ColumnStore* cols = nullptr) const;

  /// Refinement only: answers UTK1 from an already-computed filter output.
  /// `band` must cover every top-k set over `r` and carry the r-dominance
  /// arcs within itself — ComputeRSkyband's output. `stats.candidates`
  /// reports the band size; the filter's own cost is whoever produced the
  /// band's to account.
  Utk1Result RunFiltered(const Dataset& data, const RSkybandResult& band,
                         const ConvexRegion& r, int k) const;

 private:
  Options options_ = {};
};

}  // namespace utk

#endif  // UTK_CORE_RSA_H_
