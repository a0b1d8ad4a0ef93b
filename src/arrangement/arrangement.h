// Half-space arrangement over a convex region of the preference domain
// (Sections 4.2 and 4.5).
//
// Each cell is the constraint list of the base region plus the signed
// half-spaces inserted so far, together with the ids of the half-spaces
// that fully cover the cell and a cached interior point. This is the
// implicit representation of Tang et al. [45] that the paper adopts; we
// hold the leaves in a flat vector, which produces exactly the same cell set
// as the binary tree (every insertion visits every leaf in both layouts) and
// simplifies iteration. A cell may also carry its vertex list, each vertex
// with the mask of bounds tight there. The list only settles questions the
// LP would answer the same way: a cut that misses the cell, a side that is
// interior, and the drill vector (core/drill.h). A cell without one runs the
// LPs.
//
// A cell's bounds are one HalfspaceRows buffer, so a split copies one
// buffer. Cells stay values: they leave their arrangement as JAA zones and
// as returned cells (DESIGN.md §4, "Flat bounds").
//
// Instances are small and disposable: RSA/JAA build one local arrangement
// per recursive Verify/Partition call and throw it away afterwards
// (Section 4.5), which keeps each index tiny.
//
// Numerical policy: a cell must have a Chebyshev ball of radius
// kInteriorEps to exist. Splits that would create a thinner side do not
// create it. A dropped sliver wider than kEps can still hold a different
// top-k, so the kept side's half-space becomes a bound of the cell and no
// later split can move the centre back into it. A side whose every vertex
// lies within kEps of the cut fits in a slab kEps wide, so its radius is at
// most kEps/2: it is rejected without an LP, as the LP would reject it. A
// side whose clipped vertices' centroid lies more than kInteriorEps inside
// every bound and the cut holds that ball, so its Chebyshev radius clears
// the threshold: it is kept without an LP, as the LP would keep it, with
// the centroid as its centre. A cell's centre is therefore the maximal
// Chebyshev centre only where an LP found it (DESIGN.md §4).
#ifndef UTK_ARRANGEMENT_ARRANGEMENT_H_
#define UTK_ARRANGEMENT_ARRANGEMENT_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/stats.h"
#include "geometry/region.h"

namespace utk {

/// Most vertices a cell's list may hold. A cell whose list would grow past
/// it drops the list, and so do its descendants (DESIGN.md §4).
inline constexpr int kMaxCellVertices = 64;

/// One arrangement cell.
struct Cell {
  /// Base region + signed path half-spaces, one HalfspaceRows row each.
  HalfspaceRows bounds;
  std::vector<int> covering;      ///< ids of half-spaces covering the cell
  Vec interior;                   ///< cached interior point
  /// Radius of a ball inside the cell at `interior`: the Chebyshev radius
  /// where an LP found the centre, at most that where a vertex certificate
  /// did.
  Scalar radius = 0.0;
  bool frozen = false;            ///< stopped splitting (count threshold hit)
  /// Vertices, NumVertices() rows of dim coordinates each. Empty when the
  /// cell carries no vertex list; every question about it is then an LP.
  std::vector<Scalar> verts;
  /// One mask per vertex: bit j set means bounds[j] is tight there.
  std::vector<uint64_t> tight;

  int Count() const { return static_cast<int>(covering.size()); }
  bool HasVertices() const { return !tight.empty(); }
  int NumVertices() const { return static_cast<int>(tight.size()); }
};

/// The single cell of `region`: its constraints and the Chebyshev centre
/// found from its pivot, a solve charged to `stats`. When the first 2 * dim rows are the axis box, as
/// ConvexRegion::FromBox puts them, the cell also carries the box corners,
/// clipped by any further rows; otherwise it carries no vertex list. The
/// region must have interior.
Cell BaseCell(const ConvexRegion& region, QueryStats* stats = nullptr);

class CellArrangement {
 public:
  /// Starts with the single cell BaseCell(base), whose Chebyshev solve is
  /// charged to `stats`.
  explicit CellArrangement(const ConvexRegion& base,
                           QueryStats* stats = nullptr);
  /// Starts with one cell that has the geometry of `zone`: its bounds,
  /// centre, radius and vertex list, but no covering ids.
  explicit CellArrangement(const Cell& zone, QueryStats* stats = nullptr);

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
  /// sizeof(Cell) plus its bound rows (HalfspaceRows::Bytes), covering ids,
  /// interior point and vertex arrays. Kept as a running total, so reading
  /// it is O(1).
  int64_t MemoryBytes() const { return bytes_; }

 private:
  // Appends hs_id to c's covering list and updates c.frozen.
  void Cover(Cell& c, int hs_id);
  // Replaces c's cached centre and radius.
  void Recentre(Cell& c, InteriorPoint ip);
  // Replaces c's vertex list with the first n rows of `verts` and `tight`,
  // or drops it when n <= 0.
  void SetVertices(Cell& c, const Scalar* verts, const uint64_t* tight,
                   int n);
  // Appends row s of cut_ to c's bounds.
  void AddBound(Cell& c, int s);

  std::vector<Cell> cells_;
  // The cut being inserted (row 0) and its complement (row 1).
  HalfspaceRows cut_;
  int freeze_threshold_ = std::numeric_limits<int>::max();
  QueryStats* stats_;
  int64_t bytes_ = 0;  // MemoryBytes()
};

}  // namespace utk

#endif  // UTK_ARRANGEMENT_ARRANGEMENT_H_
