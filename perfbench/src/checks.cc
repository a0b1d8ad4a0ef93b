#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace perfbench {

bool SameIds(std::vector<int32_t> a, std::vector<int32_t> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

void InjectFault(std::vector<int32_t>& ids) {
  ids.push_back(std::numeric_limits<int32_t>::max());
}

std::string Where(uint64_t seed, int64_t request,
                  const utk::QuerySpec& spec) {
  std::string out = "seed=" + std::to_string(seed) +
                    " request=" + std::to_string(request) +
                    (spec.mode == utk::QueryMode::kUtk1 ? " utk1" : " utk2");
  out += " k=" + std::to_string(spec.k) + " box=[";
  const utk::Vec& lo = spec.region.box_lo();
  const utk::Vec& hi = spec.region.box_hi();
  char buf[64];
  for (size_t i = 0; i < lo.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g..%.17g", i == 0 ? "" : ",",
                  lo[i], hi[i]);
    out += buf;
  }
  return out + "]";
}

std::vector<int32_t> MapIds(const std::vector<int32_t>& ids,
                            const std::vector<int32_t>& live_ids) {
  std::vector<int32_t> out;
  out.reserve(ids.size());
  for (int32_t id : ids) out.push_back(live_ids.at(static_cast<size_t>(id)));
  return out;
}

std::optional<std::string> CheckCorners(const utk::QueryEngine& engine,
                                        const utk::QuerySpec& spec,
                                        const std::vector<int32_t>& ids) {
  const utk::Vec pivot = *spec.region.Pivot();
  std::vector<utk::Vec> probes = spec.region.BoxVertices();
  for (utk::Vec& w : probes)
    for (size_t d = 0; d < w.size(); ++d) w[d] += 0.01 * (pivot[d] - w[d]);
  probes.push_back(pivot);
  std::vector<int32_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  for (const utk::Vec& w : probes) {
    for (int32_t id : engine.TopK(w, spec.k)) {
      if (!std::binary_search(sorted.begin(), sorted.end(), id))
        return "record " + std::to_string(id) +
               " is in a top-k inside the region but not in the answer";
    }
  }
  return std::nullopt;
}

std::optional<std::string> CheckCells(const utk::QueryEngine& engine,
                                      const utk::Utk2Result& utk2,
                                      const std::vector<int32_t>& ids, int k,
                                      const std::vector<int32_t>* live_ids) {
  if (utk2.cells.empty()) return "UTK2 answer has no cells";
  if (!SameIds(utk2.AllRecords(), ids))
    return "union of the cells' top-k sets differs from the UTK1 ids";
  for (size_t c = 0; c < utk2.cells.size(); ++c) {
    const utk::Utk2Cell& cell = utk2.cells[c];
    std::vector<int32_t> expect = engine.TopK(cell.witness, k);
    if (live_ids != nullptr) expect = MapIds(expect, *live_ids);
    if (!SameIds(cell.topk, expect))
      return "cell " + std::to_string(c) + ": top-k at its witness differs";
  }
  return std::nullopt;
}

}  // namespace perfbench
