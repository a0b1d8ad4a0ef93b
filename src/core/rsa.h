// RSA — the r-Skyband Algorithm for UTK1 (Section 4).
//
// Filtering: compute the r-skyband and the r-dominance graph G (Section 4.1).
// Refinement: verify candidates one by one in descending r-dominance-count
// order; a verified candidate confirms all its ancestors in G for free, and
// a disqualified candidate is removed from G. Verification of a candidate
// recursively partitions the region with the half-spaces of the strongest
// (r-dominance count 0) competitors, confirms promising partitions via
// Lemma 1, and short-circuits with the drill optimization (Section 4.3).
#ifndef UTK_CORE_RSA_H_
#define UTK_CORE_RSA_H_

#include "core/utk.h"
#include "index/rtree.h"
#include "skyline/graph.h"

namespace utk {

class Rsa {
 public:
  struct Options {
    bool use_drill = true;      ///< drill optimization (Section 4.3)
    bool use_lemma1 = true;     ///< Lemma-1 competitor pruning
    /// Maximum half-spaces inserted per local arrangement (the paper's
    /// "small, carefully selected subset" of competitors, Section 4.2).
    /// Leftover strongest competitors are handled by the recursion, which
    /// only descends into promising partitions. 0 = insert all count-0
    /// competitors at once.
    int wave_cap = 8;
    /// Promising partitions evaluated concurrently at the TOP level of each
    /// candidate's verification (recursive levels stay serial — the top
    /// level owns nearly all the fan-out). <= 1 keeps the serial walk.
    /// > 1 evaluates cells speculatively on the shared pool
    /// (common/pool.h) and commits outcomes in cell order up to the first
    /// success, so result ids, cell outcomes, and every logical QueryStats
    /// counter are bitwise identical to the serial walk; only the
    /// refine_tasks/refine_task_us/refine_critical_us timing fields (and
    /// wall time) differ.
    int refine_threads = 0;
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
