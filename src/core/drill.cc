#include "core/drill.h"

#include <queue>

#include "geometry/linear.h"
#include "obs/metrics.h"

namespace utk {

namespace {

void CountDrill(QueryStats* stats) {
  if (stats != nullptr) ++stats->drills;
  static obs::Counter& probes = obs::MetricRegistry::Global().GetCounter(
      "utk_drill_probes_total");
  probes.Add();
}

// The drill LP over `cons`, a list of Halfspaces or HalfspaceRows.
template <class Cons>
std::optional<Vec> DrillLp(const AffineScore& objective, const Cons& cons,
                           const Vec* start, QueryStats* stats) {
  if (stats != nullptr) ++stats->lp_calls;
  CountDrill(stats);
  LpResult r = SolveLp(objective.coef, cons, /*maximize=*/true, start);
  if (r.status != LpStatus::kOptimal) return std::nullopt;
  return r.x;
}

}  // namespace

std::optional<Vec> DrillVector(const AffineScore& objective,
                               const std::vector<Halfspace>& cons,
                               const Vec* start, QueryStats* stats) {
  return DrillLp(objective, cons, start, stats);
}

std::optional<Vec> DrillVector(const AffineScore& objective, const Cell& cell,
                               QueryStats* stats) {
  if (!cell.HasVertices())
    return DrillLp(objective, cell.bounds, &cell.interior, stats);
  CountDrill(stats);
  const size_t dim = cell.interior.size();
  const Scalar* best = nullptr;
  Scalar best_score = 0.0;
  for (int v = 0; v < cell.NumVertices(); ++v) {
    const Scalar* x = &cell.verts[v * dim];
    Scalar s = 0.0;
    for (size_t j = 0; j < dim; ++j) s += objective.coef[j] * x[j];
    if (best == nullptr || s > best_score) {
      best = x;
      best_score = s;
    }
  }
  return Vec(best, best + dim);
}

std::vector<int> GraphTopK(const Dataset& data, const RSkybandResult& band,
                           const RDominanceGraph& g, const Bitset& mask,
                           const Vec& w, int k, QueryStats* stats) {
  if (stats != nullptr) ++stats->drills;
  static obs::Counter& walks = obs::MetricRegistry::Global().GetCounter(
      "utk_drill_graph_walks_total");
  walks.Add();
  struct Entry {
    Scalar score;
    int node;
    bool operator<(const Entry& o) const {
      if (score != o.score) return score < o.score;
      return node > o.node;  // deterministic tie-break: smaller node first
    }
  };
  std::priority_queue<Entry> heap;
  Bitset seen(g.size());

  auto eval = [&](int i) { return Score(data[band.ids[i]], w); };

  // Seed with the roots of the masked sub-DAG: masked-in nodes none of whose
  // (transitive) ancestors are masked-in.
  for (int i = 0; i < g.size(); ++i) {
    if (mask.Test(i) && !g.Ancestors(i).Intersects(mask)) {
      seen.Set(i);
      heap.push({eval(i), i});
    }
  }

  std::vector<int> result;
  // Discovers the masked-in frontier below `u`, treating masked-out nodes as
  // transparent (their arcs still certify score dominance at any w in R).
  std::vector<int> dfs;
  auto push_frontier = [&](int u) {
    dfs.assign(1, u);
    while (!dfs.empty()) {
      const int v = dfs.back();
      dfs.pop_back();
      for (int c : g.Children(v)) {
        if (seen.Test(c)) continue;
        seen.Set(c);
        if (mask.Test(c)) {
          heap.push({eval(c), c});
        } else {
          dfs.push_back(c);
        }
      }
    }
  };

  while (!heap.empty() && static_cast<int>(result.size()) < k) {
    const Entry e = heap.top();
    heap.pop();
    result.push_back(e.node);
    push_frontier(e.node);
  }
  return result;
}

}  // namespace utk
