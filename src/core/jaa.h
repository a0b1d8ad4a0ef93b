// JAA — the Joint Arrangement Algorithm for UTK2 (Section 5).
//
// JAA shares RSA's filtering step (r-skyband + r-dominance graph) but builds
// one *common global arrangement* of R. An anchor record partitions the
// current region via the verification-like process of Section 4.2 (drill and
// early termination disabled); each partition is classified as
//   equal-to      anchor ranks exactly `need`  -> top-k known, finalized
//   less-than     anchor ranks above `need`    -> recurse with a longer
//                                                 known top prefix
//   greater-than  anchor ranks below `need`    -> recurse excluding the
//                                                 anchor and its descendants
// The anchor choosing strategy (Section 5.1) picks the `need`-th best record
// at a drill vector inside the partition, guaranteeing at least one equal-to
// sub-partition per anchor.
#ifndef UTK_CORE_JAA_H_
#define UTK_CORE_JAA_H_

#include "core/utk.h"
#include "index/rtree.h"
#include "skyline/rskyband.h"

namespace utk {

class Jaa {
 public:
  struct Options {
    bool use_lemma1 = true;  ///< Lemma-1 competitor pruning
    /// Maximum half-spaces inserted per local arrangement; leftover
    /// competitors are handled by deeper recursion (see Rsa::Options).
    int wave_cap = 8;
    /// Cells of the TOP-level partition refined concurrently (recursive
    /// levels stay serial). <= 1 keeps the serial walk. > 1 runs each
    /// top-level cell's whole sub-recursion as a pool task with private
    /// output/stats/scratch, then merges results in cell order — JAA has
    /// no early exit, every cell always runs, so the emitted cells and
    /// every logical QueryStats counter are bitwise identical to the
    /// serial walk (only the refine_* timing fields and wall time differ).
    int refine_threads = 0;
  };

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
