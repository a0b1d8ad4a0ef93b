// BBS k-skyband computation (Papadias et al., described in Section 2).
//
// Branch-and-bound over the R-tree with a max-heap keyed by a monotone
// metric (here: sum of top-corner coordinates). A record enters the skyband
// if fewer than k current members dominate it; an index node is expanded if
// its top corner is dominated by fewer than k members.
#ifndef UTK_SKYLINE_SKYBAND_H_
#define UTK_SKYLINE_SKYBAND_H_

#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "exec/column_store.h"
#include "index/rtree.h"

namespace utk {

/// Computes the k-skyband of `data` using BBS over `tree`.
/// Returns record ids in the order BBS confirmed them. `cols`, when
/// non-null, must mirror `data`; the dominated-count probes then run the
/// batched CountDominatorsOfPoint kernel over the confirmed members
/// (bit-identical either way). Heap keys stay scalar — SumCoords per
/// popped entry is not a hot loop.
std::vector<int32_t> KSkyband(const Dataset& data, const RTree& tree, int k,
                              QueryStats* stats = nullptr,
                              const ColumnStore* cols = nullptr);

/// Brute-force k-skyband (O(n^2)), used as a test oracle.
std::vector<int32_t> KSkybandBruteForce(const Dataset& data, int k);

}  // namespace utk

#endif  // UTK_SKYLINE_SKYBAND_H_
