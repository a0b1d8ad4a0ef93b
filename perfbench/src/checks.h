// Answer checks of the end-to-end benchmark. They run outside the timed
// regions; every mismatch becomes a failed operation of the run.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/query.h"
#include "api/query_engine.h"

namespace perfbench {

/// True iff `a` and `b` hold the same ids (order ignored).
bool SameIds(std::vector<int32_t> a, std::vector<int32_t> b);

/// Makes `ids` wrong on purpose (adds an id no dataset holds); used by
/// --inject-fault and the self-check to prove a wrong answer is caught.
void InjectFault(std::vector<int32_t>& ids);

/// "seed=S request=R utk2 k=10 box=[lo..hi,...]": enough to replay the
/// request.
std::string Where(uint64_t seed, int64_t request, const utk::QuerySpec& spec);

/// Checks a UTK2 decomposition: the union of cell top-k sets equals `ids`,
/// and every cell's top-k equals engine.TopK at the cell's witness. When
/// `live_ids` is given, `engine` answers over compacted ids and its answers
/// are mapped through it first. Returns the first mismatch.
std::optional<std::string> CheckCells(
    const utk::QueryEngine& engine, const utk::Utk2Result& utk2,
    const std::vector<int32_t>& ids, int k,
    const std::vector<int32_t>* live_ids = nullptr);

/// Checks a UTK1 answer against plain top-k queries: the top-k at the
/// region's pivot, and at every box corner moved 1% of the way towards the
/// pivot, must be inside `ids`. The program drops arrangement cells
/// thinner than kInteriorEps as tie boundaries, so a record that is in the
/// top-k only on a sliver at the very corner is rightly left out; 1% of a
/// half-side keeps each probe far more than kInteriorEps inside the box.
std::optional<std::string> CheckCorners(const utk::QueryEngine& engine,
                                        const utk::QuerySpec& spec,
                                        const std::vector<int32_t>& ids);

/// Maps compacted ids (a fresh Engine over CompactSnapshot) back to live ids.
std::vector<int32_t> MapIds(const std::vector<int32_t>& ids,
                            const std::vector<int32_t>& live_ids);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
