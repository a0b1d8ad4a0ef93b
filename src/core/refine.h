// The refinement core RSA (Section 4.2) and JAA (Section 5) share.
//
// Both refine a zone, an arrangement cell of which only the geometry is
// used (bounds, centre, radius, vertices), the same way: Arrange inserts
// the half-spaces of the strongest competitors (the wave) into a local
// arrangement of the zone, and SplitByLemma1 settles each of its cells
// against the competitors left out of the wave. RSA adds its quota, drill
// and early exit (core/rsa.cc); JAA adds its anchor and three-way rank rule
// (core/jaa.cc).
#ifndef UTK_CORE_REFINE_H_
#define UTK_CORE_REFINE_H_

#include <vector>

#include "arrangement/arrangement.h"
#include "common/bitset.h"
#include "exec/column_store.h"
#include "skyline/graph.h"
#include "skyline/rskyband.h"

namespace utk {

/// The knobs RSA and JAA both take.
struct RefineOptions {
  bool use_lemma1 = true;  ///< Lemma-1 competitor pruning
  /// Maximum half-spaces inserted per local arrangement (the paper's
  /// "small, carefully selected subset" of competitors, Section 4.2).
  /// Leftover strongest competitors are handled by the recursion, which
  /// only descends into cells it cannot settle. 0 = insert all of them at
  /// once.
  int wave_cap = 8;
  /// Ignored; kept only because perfbench reads it (ROADMAP item 9).
  /// Refinement always runs on the calling thread.
  int refine_threads = 0;
};

/// The state of one refinement over a computed band: node i of the graph
/// and row i of the columns are record band.ids[i].
struct Refinement {
  Refinement(const Dataset& data, const RSkybandResult& band,
             const RefineOptions& options, QueryStats* stats);

  /// The local arrangement of `zone` for record `p` (a band index): the
  /// wave is the competitors with no r-dominator among `competitors`,
  /// capped at wave_cap by score at the zone's centre, and each member q
  /// inserts BetterOrEqual(q, p). Cells covered `freeze` times stop
  /// splitting. `inserted` receives the wave.
  CellArrangement Arrange(const Cell& zone, int p, const Bitset& competitors,
                          int freeze, Bitset* inserted);

  /// Lemma 1 for `cell` of an Arrange result: `not_covering` receives the
  /// inserted half-spaces that do not cover the cell, and `disregarded`
  /// the `remaining` competitors r-dominated by one of them, which cannot
  /// beat p inside the cell. True when every remaining competitor is
  /// disregarded.
  bool SplitByLemma1(const Cell& cell, const Bitset& inserted,
                     const Bitset& remaining, Bitset* not_covering,
                     Bitset* disregarded) const;

  const Dataset& data;
  const RSkybandResult& band;
  RDominanceGraph g;
  /// Gathered SoA mirror of the band. Refinement scores these few hundred
  /// rows over and over; the batched kernels sweep them contiguously.
  const ColumnStore band_cols;
  std::vector<Scalar> scratch;  ///< |band| score buffer for the kernels
  /// Arrange's wave and cut, kept so repeated calls reuse their storage.
  std::vector<int> wave;
  Halfspace cut;
  const RefineOptions options;
  QueryStats* stats;
};

}  // namespace utk

#endif  // UTK_CORE_REFINE_H_
