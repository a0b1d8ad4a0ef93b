// Half-space arrangement over a convex region of the preference domain
// (Sections 4.2 and 4.5).
//
// Cells are kept implicitly, each as the constraint list of the base region
// plus the signed half-spaces inserted so far, together with the ids of the
// half-spaces that fully cover the cell and a cached interior point. This is
// the implicit representation of Tang et al. [45] that the paper adopts; we
// hold the leaves in a flat vector, which produces exactly the same cell set
// as the binary tree (every insertion visits every leaf in both layouts) and
// simplifies iteration.
//
// Instances are small and disposable: RSA/JAA build one local arrangement
// per recursive Verify/Partition call and throw it away afterwards
// (Section 4.5), which keeps each index tiny.
//
// Numerical policy: a cell must have a Chebyshev ball of radius
// kInteriorEps to exist. Splits that would create a thinner side do not
// create it. A dropped sliver wider than kEps can still hold a different
// top-k, so the kept side's half-space becomes a bound of the cell and no
// later split can move the centre back into it (DESIGN.md §4).
#ifndef UTK_ARRANGEMENT_ARRANGEMENT_H_
#define UTK_ARRANGEMENT_ARRANGEMENT_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/stats.h"
#include "geometry/region.h"

namespace utk {

/// One arrangement cell.
struct Cell {
  std::vector<Halfspace> bounds;  ///< base region + signed path half-spaces
  std::vector<int> covering;      ///< ids of half-spaces covering the cell
  Vec interior;                   ///< cached interior point
  Scalar radius = 0.0;            ///< Chebyshev radius at `interior`
  bool frozen = false;            ///< stopped splitting (count threshold hit)

  int Count() const { return static_cast<int>(covering.size()); }
};

class CellArrangement {
 public:
  /// Starts with the single cell `base`. The base must have interior.
  explicit CellArrangement(const ConvexRegion& base,
                           QueryStats* stats = nullptr);
  CellArrangement(std::vector<Halfspace> base_bounds, Vec interior,
                  Scalar radius, QueryStats* stats = nullptr);

  /// Inserts half-space `hs` with external id `hs_id`: every cell is either
  /// covered (count++), untouched, or split in two. Cells whose covering
  /// count has reached the freeze threshold are not refined further.
  void Insert(int hs_id, const Halfspace& hs);

  /// Cells with Count() >= threshold stop splitting (kSPR pruning: once k
  /// competitors beat the candidate everywhere in a cell, the cell's exact
  /// geometry no longer matters). Default: no freezing.
  void set_freeze_threshold(int t) { freeze_threshold_ = t; }

  const std::vector<Cell>& cells() const { return cells_; }

  /// Smallest covering count over all cells.
  int MinCount() const;

  /// True iff every cell is frozen (all counts >= freeze threshold).
  bool AllFrozen() const;

  /// Index of the cell containing `w`, or -1. Boundary points may match the
  /// first of several adjacent cells.
  int Locate(const Vec& w, Scalar eps = kEps) const;

  /// Estimated memory footprint of the cell store, for stats: per cell
  /// sizeof(Cell) plus its bounds, covering ids and interior point. Kept as
  /// a running total, so reading it is O(1).
  int64_t MemoryBytes() const { return bytes_; }

 private:
  // Appends hs_id to c's covering list and updates c.frozen.
  void Cover(Cell& c, int hs_id);
  // Replaces c's cached centre and radius.
  void Recentre(Cell& c, InteriorPoint ip);

  std::vector<Cell> cells_;
  int freeze_threshold_ = std::numeric_limits<int>::max();
  QueryStats* stats_;
  int64_t bytes_ = 0;  // MemoryBytes()
};

}  // namespace utk

#endif  // UTK_ARRANGEMENT_ARRANGEMENT_H_
