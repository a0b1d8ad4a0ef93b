#include "skyline/onion.h"

#include <algorithm>

#include "geometry/lp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "skyline/skyband.h"

namespace utk {

bool IsFirstQuadrantHullMember(const Record& p,
                               const std::vector<const Record*>& others,
                               QueryStats* stats) {
  const int d = p.Dim();
  const int nv = d - 1;  // reduced weights; w_d = 1 - sum implied
  // Variables (w, t): maximize t subject to
  //   S(p)(w) - S(q)(w) >= t  for all q,
  //   w in the closed weight simplex, t <= 1.
  // It starts from w = 0, t = min(1, min_q (p_d - q_d)), which satisfies
  // every row exactly.
  std::vector<Halfspace> cons;
  cons.reserve(others.size() + nv + 2);
  Vec start(nv + 1, 0.0);
  start[nv] = 1.0;
  for (const Record* q : others) {
    // (coef_q - coef_p).w + t <= offset_p - offset_q
    Halfspace h;
    h.a.resize(nv + 1);
    for (int i = 0; i < nv; ++i) {
      const Scalar cp = p.attrs[i] - p.attrs[d - 1];
      const Scalar cq = q->attrs[i] - q->attrs[d - 1];
      h.a[i] = cq - cp;
    }
    h.a[nv] = 1.0;
    h.b = p.attrs[d - 1] - q->attrs[d - 1];
    start[nv] = std::min(start[nv], h.b);
    cons.push_back(std::move(h));
  }
  for (int i = 0; i < nv; ++i) {
    Halfspace nonneg;
    nonneg.a.assign(nv + 1, 0.0);
    nonneg.a[i] = -1.0;
    nonneg.b = 0.0;
    cons.push_back(std::move(nonneg));
  }
  Halfspace simplex;
  simplex.a.assign(nv + 1, 0.0);
  for (int i = 0; i < nv; ++i) simplex.a[i] = 1.0;
  simplex.b = 1.0;
  cons.push_back(std::move(simplex));
  Halfspace cap;
  cap.a.assign(nv + 1, 0.0);
  cap.a[nv] = 1.0;
  cap.b = 1.0;
  cons.push_back(std::move(cap));

  Vec obj(nv + 1, 0.0);
  obj[nv] = 1.0;
  if (stats != nullptr) ++stats->lp_calls;
  static obs::Counter& probes = obs::MetricRegistry::Global().GetCounter(
      "utk_onion_hull_probes_total");
  probes.Add();
  LpResult r = SolveLp(obj, cons, /*maximize=*/true, &start);
  return r.status == LpStatus::kOptimal && EpsGe(r.objective, 0.0);
}

std::vector<std::vector<int32_t>> OnionLayers(const Dataset& data,
                                              const RTree& tree, int k,
                                              QueryStats* stats) {
  UTK_SPAN("filter.onion");
  std::vector<std::vector<int32_t>> layers;
  std::vector<int32_t> remaining = KSkyband(data, tree, k, stats);
  for (int layer = 0; layer < k && !remaining.empty(); ++layer) {
    std::vector<const Record*> pool;
    pool.reserve(remaining.size());
    for (int32_t id : remaining) pool.push_back(&data[id]);
    std::vector<int32_t> members;
    std::vector<int32_t> rest;
    for (int32_t id : remaining) {
      std::vector<const Record*> others;
      others.reserve(pool.size() - 1);
      for (const Record* q : pool)
        if (q->id != id) others.push_back(q);
      if (IsFirstQuadrantHullMember(data[id], others, stats)) {
        members.push_back(id);
      } else {
        rest.push_back(id);
      }
    }
    if (members.empty()) break;  // degenerate: no record extreme in quadrant
    layers.push_back(std::move(members));
    remaining = std::move(rest);
  }
  return layers;
}

OnionIndex::OnionIndex(const Dataset& data, const RTree& tree, int max_k,
                       QueryStats* stats)
    : data_(data), layers_(OnionLayers(data, tree, max_k, stats)) {}

std::vector<int32_t> OnionIndex::Query(const Vec& w, int k) const {
  std::vector<std::pair<Scalar, int32_t>> scored;
  const int depth = std::min<int>(k, static_cast<int>(layers_.size()));
  for (int l = 0; l < depth; ++l) {
    for (int32_t id : layers_[l]) {
      scored.emplace_back(Score(data_[id], w), id);
    }
  }
  const int kk = std::min<int>(k, static_cast<int>(scored.size()));
  std::partial_sort(scored.begin(), scored.begin() + kk, scored.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  std::vector<int32_t> out;
  out.reserve(kk);
  for (int i = 0; i < kk; ++i) out.push_back(scored[i].second);
  return out;
}

int64_t OnionIndex::CandidateCount() const {
  int64_t n = 0;
  for (const auto& layer : layers_) n += static_cast<int64_t>(layer.size());
  return n;
}

std::vector<int32_t> OnionCandidates(const Dataset& data, const RTree& tree,
                                     int k, QueryStats* stats) {
  std::vector<int32_t> out;
  for (const auto& layer : OnionLayers(data, tree, k, stats))
    out.insert(out.end(), layer.begin(), layer.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace utk
