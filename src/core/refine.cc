#include "core/refine.h"

#include <algorithm>

#include "exec/kernels.h"
#include "geometry/linear.h"
#include "obs/trace.h"

namespace utk {

Refinement::Refinement(const Dataset& data, const RSkybandResult& band,
                       const RefineOptions& options, QueryStats* stats)
    : data(data),
      band(band),
      g(RDominanceGraph::Build(band)),
      band_cols(data, band.ids),
      scratch(band.ids.size()),
      options(options),
      stats(stats) {}

CellArrangement Refinement::Arrange(const Cell& zone, int p,
                                    const Bitset& competitors, int freeze,
                                    Bitset* inserted) {
  CellArrangement arr(zone, stats);
  arr.set_freeze_threshold(freeze);
  std::vector<int> wave;
  competitors.ForEach([&](int i) {
    if (!g.Ancestors(i).Intersects(competitors)) wave.push_back(i);
  });
  if (options.wave_cap > 0 &&
      static_cast<int>(wave.size()) > options.wave_cap) {
    // Batched scores at the centre once; the sort compares flat scalars.
    ScoreAll(band_cols, zone.interior, scratch.data());
    std::partial_sort(
        wave.begin(), wave.begin() + options.wave_cap, wave.end(),
        [&](int a, int b) { return scratch[a] > scratch[b]; });
    wave.resize(options.wave_cap);
  }
  *inserted = Bitset(g.size());
  UTK_SPAN_VAL("arrangement.build", static_cast<int64_t>(wave.size()));
  for (int i : wave) {
    arr.Insert(i, BetterOrEqual(data[band.ids[i]], data[band.ids[p]]));
    inserted->Set(i);
  }
  return arr;
}

bool Refinement::SplitByLemma1(const Cell& cell, const Bitset& inserted,
                               const Bitset& remaining, Bitset* not_covering,
                               Bitset* disregarded) const {
  *not_covering = inserted;
  for (int id : cell.covering) not_covering->Reset(id);
  *disregarded = Bitset(g.size());
  bool confirmed = true;
  remaining.ForEach([&](int q) {
    if (options.use_lemma1 && g.Ancestors(q).Intersects(*not_covering)) {
      disregarded->Set(q);
    } else {
      confirmed = false;
    }
  });
  return confirmed;
}

}  // namespace utk
