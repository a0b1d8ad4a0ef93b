#include "skyline/skyband.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "exec/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "skyline/dominance.h"

namespace utk {

namespace {

struct HeapEntry {
  Scalar key;
  bool is_record;
  int32_t id;  // record id or node id
  bool operator<(const HeapEntry& o) const { return key < o.key; }
};

Scalar SumCoords(const Vec& v) {
  return std::accumulate(v.begin(), v.end(), Scalar{0});
}

}  // namespace

std::vector<int32_t> KSkyband(const Dataset& data, const RTree& tree, int k,
                              QueryStats* stats, const ColumnStore* cols) {
  UTK_SPAN("filter.skyband");
  std::vector<int32_t> band;
  if (tree.empty()) return band;
  const bool soa = cols != nullptr && !cols->empty();

  std::priority_queue<HeapEntry> heap;
  heap.push({SumCoords(tree.node(tree.root()).mbb.TopCorner()), false,
             tree.root()});

  static obs::Counter& probes = obs::MetricRegistry::Global().GetCounter(
      "utk_skyband_membership_probes_total");
  auto dominated_count_reaches_k = [&](const Vec& v) {
    probes.Add();
    if (soa) return CountDominatorsOfPoint(*cols, band, v, k, kEps) >= k;
    int count = 0;
    for (int32_t id : band) {
      if (Dominates(data[id].attrs, v) && ++count >= k) return true;
    }
    return false;
  };

  while (!heap.empty()) {
    HeapEntry e = heap.top();
    heap.pop();
    if (stats != nullptr) ++stats->heap_pops;
    if (e.is_record) {
      if (!dominated_count_reaches_k(data[e.id].attrs)) band.push_back(e.id);
    } else {
      const RTreeNode& node = tree.node(e.id);
      if (dominated_count_reaches_k(node.mbb.TopCorner())) continue;
      if (node.is_leaf) {
        for (int32_t rid : node.record_ids)
          heap.push({SumCoords(data[rid].attrs), true, rid});
      } else {
        for (int32_t child : node.entries)
          heap.push({SumCoords(tree.node(child).mbb.TopCorner()), false,
                     child});
      }
    }
  }
  return band;
}

std::vector<int32_t> KSkybandBruteForce(const Dataset& data, int k) {
  // One batched many-vs-many sweep; membership is count < k, and the
  // kernel caps at k, so the cap never changes the verdict. The kernel
  // itself is differentially pinned against the scalar Dominates() loop in
  // tests/test_exec.cc, keeping this oracle independent of the BBS path.
  ColumnStore cols(data);
  std::vector<int32_t> all(data.size());
  std::iota(all.begin(), all.end(), 0);
  std::vector<int32_t> counts(data.size());
  DominatedCounts(cols, all, all, k, kEps, counts.data());
  std::vector<int32_t> band;
  for (size_t i = 0; i < data.size(); ++i)
    if (counts[i] < k) band.push_back(data[i].id);
  return band;
}

}  // namespace utk
