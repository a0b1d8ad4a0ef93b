#include "dist/partitioned_engine.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "core/jaa.h"
#include "core/rsa.h"
#include "dist/tiler.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace utk {
namespace {

/// One ShardFilterReport from the per-task slices of a flat filter pass.
ShardFilterReport MakeReport(int num_shards, int tile,
                             const std::vector<std::vector<int32_t>>& ids,
                             const std::vector<double>& ms, double seed_ms,
                             int64_t pool) {
  ShardFilterReport report;
  report.shard_candidates.reserve(num_shards);
  report.shard_ms.reserve(num_shards);
  double max_shard = 0.0;
  for (int s = 0; s < num_shards; ++s) {
    report.shard_candidates.push_back(static_cast<int64_t>(ids[s].size()));
    const double t = ms[tile * num_shards + s];
    report.shard_ms.push_back(t);
    max_shard = std::max(max_shard, t);
  }
  report.seed_ms = seed_ms;
  report.critical_ms = seed_ms + max_shard;
  report.pool = pool;
  return report;
}

/// Shards partition the dataset, so per-shard bands are disjoint: the pool
/// is a plain sorted concatenation.
std::vector<int32_t> UnionPool(const std::vector<std::vector<int32_t>>& ids) {
  std::vector<int32_t> pool;
  for (const auto& shard : ids)
    pool.insert(pool.end(), shard.begin(), shard.end());
  std::sort(pool.begin(), pool.end());
  return pool;
}

}  // namespace

PartitionedEngine::PartitionedEngine(Dataset data, DistConfig config)
    : base_(std::make_shared<const Engine>(std::move(data))),
      config_(config) {
  BuildShards();
}

PartitionedEngine::PartitionedEngine(std::shared_ptr<const Engine> base,
                                     DistConfig config)
    : base_(std::move(base)), config_(config) {
  BuildShards();
}

void PartitionedEngine::BuildShards() {
  const Dataset& data = base_->data();
  shard_of_.assign(data.size(), 0);
  if (config_.shards <= 1) {
    // Single shard: alias the base engine's dataset, R-tree, and column
    // store rather than duplicating them — a tiles-only configuration
    // costs no extra memory.
    shards_.resize(1);
    shards_[0].records = &data;
    shards_[0].tree = &base_->tree();
    shards_[0].cols = &base_->cols();
    return;
  }
  std::vector<std::vector<int32_t>> parts =
      PartitionIds(data, config_.shards, config_.partitioner);
  shards_.resize(parts.size());
  const int threads =
      config_.threads <= 0 ? DefaultThreads() : config_.threads;
  ParallelFor(static_cast<int>(parts.size()), threads, [&](int s) {
    Shard& shard = shards_[s];
    shard.global_ids = std::move(parts[s]);
    shard.owned_records.reserve(shard.global_ids.size());
    for (size_t i = 0; i < shard.global_ids.size(); ++i) {
      Record r = data[shard.global_ids[i]];
      r.id = static_cast<int32_t>(i);  // re-index: records[i].id == i
      shard.owned_records.push_back(std::move(r));
    }
    shard.owned_tree = RTree::BulkLoad(shard.owned_records);
    shard.owned_cols = ColumnStore(shard.owned_records);
    shard.records = &shard.owned_records;
    shard.tree = &shard.owned_tree;
    shard.cols = &shard.owned_cols;
  });
  for (size_t s = 0; s < shards_.size(); ++s)
    for (int32_t id : shards_[s].global_ids)
      shard_of_[id] = static_cast<int32_t>(s);
}

std::vector<int32_t> PartitionedEngine::SeedIds(const ConvexRegion& r,
                                                int k) const {
  std::vector<int32_t> seed;
  auto probe = [&](const Vec& w) {
    std::vector<int32_t> topk = base_->TopK(w, k);
    seed.insert(seed.end(), topk.begin(), topk.end());
  };
  if (auto pivot = r.Pivot()) probe(*pivot);
  // Corner probes sharpen the seed, but their count is exponential in the
  // dimension — only worth it while 2^dim stays comparable to k.
  if (r.is_box() && r.dim() <= 4)
    for (const Vec& v : r.BoxVertices()) probe(v);
  std::sort(seed.begin(), seed.end());
  seed.erase(std::unique(seed.begin(), seed.end()), seed.end());
  return seed;
}

void PartitionedEngine::FilterAll(
    const std::vector<ConvexRegion>& tiles, int k, int threads,
    std::vector<std::vector<std::vector<int32_t>>>* ids,
    std::vector<QueryStats>* stats, std::vector<double>* ms,
    std::vector<double>* seed_ms) const {
  const int T = static_cast<int>(tiles.size());
  const int S = num_shards();
  ids->assign(T, std::vector<std::vector<int32_t>>(S));
  stats->assign(T * S, QueryStats{});
  ms->assign(T * S, 0.0);
  seed_ms->assign(T, 0.0);

  // Seed stage (cheap top-k probes on the full R-tree; pointless for a
  // single shard, whose filter is the global one already).
  std::vector<std::vector<int32_t>> seeds(T);
  if (S > 1) {
    UTK_SPAN_VAL("dist.seed", T);
    for (int t = 0; t < T; ++t) {
      Timer timer;
      seeds[t] = SeedIds(tiles[t], k);
      (*seed_ms)[t] = timer.ElapsedMs();
    }
  }

  ParallelFor(T * S, threads, [&](int idx) {
    UTK_SPAN("dist.shard_filter");
    const int t = idx / S, s = idx % S;
    const Shard& shard = shards_[s];
    if (shard.records->empty()) return;  // empty shard: empty band
    Timer timer;
    // Seed records from other shards act as external pruners; the shard's
    // own must not (a record would count as its own dominator). The filter
    // orders pruners strongest-first itself.
    std::vector<Record> pruners;
    pruners.reserve(seeds[t].size());
    for (int32_t id : seeds[t])
      if (shard_of_[id] != s) pruners.push_back(base_->data()[id]);
    RSkybandResult local =
        ComputeRSkyband(*shard.records, *shard.tree, tiles[t], k, pruners,
                        &(*stats)[idx], shard.cols);
    (*ms)[idx] = timer.ElapsedMs();
    std::vector<int32_t>& out = (*ids)[t][s];
    out.reserve(local.ids.size());
    for (int32_t lid : local.ids) out.push_back(shard.ToGlobal(lid));
  });
}

std::vector<int32_t> PartitionedEngine::FilterPool(
    const ConvexRegion& r, int k, ShardFilterReport* report,
    QueryStats* stats) const {
  const int threads =
      config_.threads <= 0 ? DefaultThreads() : config_.threads;
  std::vector<std::vector<std::vector<int32_t>>> ids;
  std::vector<QueryStats> task_stats;
  std::vector<double> task_ms, seed_ms;
  FilterAll({r}, k, threads, &ids, &task_stats, &task_ms, &seed_ms);
  std::vector<int32_t> pool = UnionPool(ids[0]);
  if (report != nullptr)
    *report = MakeReport(num_shards(), 0, ids[0], task_ms, seed_ms[0],
                         static_cast<int64_t>(pool.size()));
  if (stats != nullptr) *stats += QueryStats::Merge(task_stats);
  return pool;
}

QueryResult PartitionedEngine::Run(const QuerySpec& spec) const {
  return Run(spec, nullptr);
}

int PartitionedEngine::EffectiveTiles(const QuerySpec& spec) const {
  if (config_.tiles >= 1) return config_.tiles;
  // Auto (tiles == 0): size the tiling against the model's own cost
  // estimate; with no usable estimate the query stays untiled.
  const int threads =
      config_.threads <= 0 ? DefaultThreads() : config_.threads;
  const PlanDecision d = DecidePlan(base_->cost_model(), spec, base_->size(),
                                    pref_dim(), threads);
  return d.tiles;
}

QueryResult PartitionedEngine::Run(const QuerySpec& spec,
                                   DistDetail* detail) const {
  // Invalid specs and algorithms outside the r-skyband pipeline (naive
  // oracle, SK/ON baselines) run on the embedded single engine unchanged —
  // same diagnostics, same answers. The history scope opens before the
  // fallback so the nested Engine::Run never double-records the query.
  QueryHistoryScope history;
  if (base_->Validate(spec).has_value()) {
    QueryResult r = base_->Run(spec);
    history.Record(spec, r, size(), pref_dim());
    return r;
  }
  const PlanDecision decision = base_->Decide(spec);
  const Algorithm algo = decision.algorithm;
  if (algo != Algorithm::kRsa && algo != Algorithm::kJaa) {
    QueryResult r = base_->Run(spec);
    history.Record(spec, r, size(), pref_dim());
    return r;
  }

  UTK_SPAN("dist.run");
  obs::QueryLogScope slow_log("dist.run");
  static obs::Counter& queries =
      obs::MetricRegistry::Global().GetCounter("utk_dist_queries_total");
  queries.Add();
  Timer timer;
  const std::vector<ConvexRegion> tiles =
      TileRegion(spec.region, EffectiveTiles(spec));
  const int T = static_cast<int>(tiles.size());
  const int S = num_shards();
  const int threads =
      config_.threads <= 0 ? DefaultThreads() : config_.threads;

  // Stage 1 — sharded filtering, parallel over all (tile, shard) pairs.
  std::vector<std::vector<std::vector<int32_t>>> shard_ids;
  std::vector<QueryStats> filter_stats;
  std::vector<double> filter_ms, seed_ms;
  FilterAll(tiles, spec.k, threads, &shard_ids, &filter_stats, &filter_ms,
            &seed_ms);

  // Stage 2 — per-tile pool union, pool re-filter, refinement; parallel
  // over tiles.
  std::vector<QueryResult> tile_results(T);
  std::vector<QueryStats> tile_stats(T);
  std::vector<int64_t> pool_sizes(T), band_sizes(T);
  ParallelFor(T, threads, [&](int t) {
    UTK_SPAN("dist.tile_refine");
    std::vector<int32_t> pool = UnionPool(shard_ids[t]);
    pool_sizes[t] = static_cast<int64_t>(pool.size());
    RSkybandResult band =
        ComputeRSkybandFromPool(base_->data(), std::move(pool), tiles[t],
                                spec.k, &tile_stats[t], &base_->cols());
    band_sizes[t] = static_cast<int64_t>(band.ids.size());

    QueryResult r;
    r.mode = spec.mode;
    r.algorithm = algo;
    if (algo == Algorithm::kRsa) {
      Rsa::Options opt;
      opt.use_drill = spec.use_drill;
      opt.use_lemma1 = spec.use_lemma1;
      opt.wave_cap = spec.wave_cap;
      opt.refine_threads = spec.refine_threads;
      Utk1Result res = Rsa(opt).RunFiltered(base_->data(), band, tiles[t],
                                            spec.k);
      r.ids = std::move(res.ids);
      r.stats = res.stats;
    } else {
      Jaa::Options opt;
      opt.use_lemma1 = spec.use_lemma1;
      opt.wave_cap = spec.wave_cap;
      opt.refine_threads = spec.refine_threads;
      r.utk2 = Jaa(opt).RunFiltered(base_->data(), band, tiles[t], spec.k);
      r.ids = r.utk2.AllRecords();
      r.stats = r.utk2.stats;
    }
    r.ok = true;
    tile_results[t] = std::move(r);
  });

  // Merge — UTK1: sorted union of tile id sets; UTK2: concatenated cell
  // lists (tiles partition R, so cells never overlap across tiles),
  // re-canonicalized so the tile seam order never leaks to callers.
  QueryResult out;
  out.ok = true;
  out.mode = spec.mode;
  out.algorithm = algo;
  for (QueryResult& r : tile_results) {
    out.ids.insert(out.ids.end(), r.ids.begin(), r.ids.end());
    out.utk2.cells.insert(out.utk2.cells.end(),
                          std::make_move_iterator(r.utk2.cells.begin()),
                          std::make_move_iterator(r.utk2.cells.end()));
  }
  std::sort(out.ids.begin(), out.ids.end());
  out.ids.erase(std::unique(out.ids.begin(), out.ids.end()), out.ids.end());
  out.utk2.Canonicalize();

  // Counters sum across every shard and tile; `candidates` reports the
  // refinement input (the pooled bands), matching Engine::Run's semantics,
  // and elapsed_ms is the whole query's wall clock.
  std::vector<QueryStats> parts = std::move(filter_stats);
  parts.insert(parts.end(), tile_stats.begin(), tile_stats.end());
  for (const QueryResult& r : tile_results) parts.push_back(r.stats);
  out.stats = QueryStats::Merge(parts);
  out.stats.candidates = 0;
  for (int64_t b : band_sizes) out.stats.candidates += b;
  out.stats.elapsed_ms = timer.ElapsedMs();
  out.stats.planned_algorithm = static_cast<int64_t>(algo);
  out.stats.plan_reason = static_cast<int64_t>(decision.reason);
  out.utk2.stats = out.stats;

  // Same post-hoc model check as Engine::Run — the decomposed path never
  // reaches it, so the mispredict rate must be counted here too.
  NotePlanOutcome(decision, out.stats.elapsed_ms);

  if (detail != nullptr) {
    detail->tiles = tiles;
    detail->band_sizes = band_sizes;
    detail->filter.clear();
    for (int t = 0; t < T; ++t)
      detail->filter.push_back(MakeReport(S, t, shard_ids[t], filter_ms,
                                          seed_ms[t], pool_sizes[t]));
  }
  static obs::Histogram& latency = obs::MetricRegistry::Global().GetHistogram(
      "utk_dist_query_latency_us");
  latency.Observe(static_cast<int64_t>(out.stats.elapsed_ms * 1000.0));
  slow_log.Finish(out.stats, [&spec] { return SpecFingerprint(spec); });
  history.Record(spec, out, size(), pref_dim());
  return out;
}

PlanNode PartitionedEngine::Explain(const QuerySpec& spec) const {
  // Fallback paths execute entirely on the embedded engine, so its tree is
  // the honest EXPLAIN for them.
  if (base_->Validate(spec).has_value()) return base_->Explain(spec);
  const PlanDecision d = base_->Decide(spec);
  if (d.algorithm != Algorithm::kRsa && d.algorithm != Algorithm::kJaa)
    return base_->Explain(spec);

  const int S = num_shards();
  const int T =
      static_cast<int>(TileRegion(spec.region, EffectiveTiles(spec)).size());
  const int64_t band = EstimateBandSize(base_->size(), spec.k, pref_dim());

  PlanNode root;
  root.op = "dist.run";
  root.detail = PlanDetail(d, spec.k, size()) + " shards=" +
                std::to_string(S) + " tiles=" + std::to_string(T);
  root.est_ms = d.est_ms;
  if (S > 1) {
    PlanNode seed;
    seed.op = "dist.seed";
    seed.detail = "pivot/corner top-k pruners";
    seed.est_rows = spec.k;
    root.children.push_back(std::move(seed));
  }
  PlanNode filter;
  filter.op = "dist.shard_filter";
  filter.detail = std::to_string(S) + " shard(s) x " + std::to_string(T) +
                  " tile(s), seeded r-skyband";
  filter.est_rows = band;
  root.children.push_back(std::move(filter));
  for (int t = 0; t < T; ++t) {
    PlanNode tile;
    tile.op = "dist.tile_refine";
    tile.detail = "tile " + std::to_string(t) + ": pool re-filter + refine";
    tile.est_rows = band;
    PlanNode refine;
    refine.op =
        d.algorithm == Algorithm::kRsa ? "rsa.refine" : "jaa.refine";
    refine.est_rows = band;
    tile.children.push_back(std::move(refine));
    root.children.push_back(std::move(tile));
  }
  return root;
}

}  // namespace utk
