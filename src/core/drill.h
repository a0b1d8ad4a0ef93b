// The drill optimization (Section 4.3).
//
// A drill executes a regular top-k probe at a carefully chosen weight vector
// inside a region/partition: the vector that maximizes the candidate's score
// subject to the region's constraints. The maximum of an affine score over
// a polytope is attained at a vertex, so for an arrangement cell that
// carries its vertices the drill is an argmax over them; otherwise it is a
// small LP. The probe itself never touches the dataset or the R-tree — it
// runs branch-and-bound over the r-dominance graph G, whose arcs give score
// upper bounds at any w in R.
#ifndef UTK_CORE_DRILL_H_
#define UTK_CORE_DRILL_H_

#include <optional>
#include <vector>

#include "arrangement/arrangement.h"
#include "common/bitset.h"
#include "common/stats.h"
#include "geometry/lp.h"
#include "skyline/graph.h"
#include "skyline/rskyband.h"

namespace utk {

/// Weight vector inside the region defined by `cons` that maximizes the
/// affine `objective` (the candidate's score). The LP starts from `start`, a
/// point of the region (Verify passes the cell's centre), or without one
/// from the region's Chebyshev centre. Returns nullopt only when the LP is
/// unbounded or, without a start, infeasible; callers then fall back to an
/// interior point.
std::optional<Vec> DrillVector(const AffineScore& objective,
                               const std::vector<Halfspace>& cons,
                               const Vec* start = nullptr,
                               QueryStats* stats = nullptr);

/// The drill vector of arrangement cell `cell`. When the cell carries its
/// vertices, it is the vertex with the largest `objective` (the first
/// maximum wins), found without an LP: it counts a drill but no LP call.
/// Otherwise it is the drill LP over the cell's bound rows from its centre.
std::optional<Vec> DrillVector(const AffineScore& objective, const Cell& cell,
                               QueryStats* stats = nullptr);

/// Top-k probe at weight vector `w`, evaluated purely on the r-dominance
/// graph via branch-and-bound (max-heap of node scores seeded with the
/// graph's roots; a child is only pushed once its parent pops, because a
/// parent's score upper-bounds its descendants' anywhere in R).
/// Only nodes in `mask` participate. Returns candidate indices, best first.
std::vector<int> GraphTopK(const Dataset& data, const RSkybandResult& band,
                           const RDominanceGraph& g, const Bitset& mask,
                           const Vec& w, int k, QueryStats* stats = nullptr);

}  // namespace utk

#endif  // UTK_CORE_DRILL_H_
