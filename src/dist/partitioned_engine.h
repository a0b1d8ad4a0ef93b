// PartitionedEngine — intra-query parallel execution by data sharding and
// region tiling, behind the same QuerySpec/QueryResult contract as
// utk::Engine.
//
// Engine::RunBatch parallelizes *across* queries; one heavy query is still
// bounded by a single core's filtering throughput. This engine decomposes
// one query along two orthogonal axes:
//
//   Data sharding (S shards). The dataset is split by a Partitioner
//   (dist/partition.h); each shard owns a re-indexed copy of its records
//   and its own R-tree. Filtering runs per shard in parallel, and the
//   per-shard r-skybands union into a candidate pool. Correctness of the
//   pool (the competitor-restriction argument the SK/ON baselines already
//   rely on): for any w in R, every member p of the top-k under w has
//   fewer than k records of D scoring above it, hence fewer than k within
//   p's shard — so p is in its shard's r-skyband and therefore in the
//   pool. The pool is then re-filtered *within itself*
//   (ComputeRSkybandFromPool): a pool member pruned there has >= k
//   r-dominators in the pool, hence in D, so it was outside the global
//   r-skyband and can never appear in a top-k; every global r-skyband
//   member survives. The refinement step (Rsa/Jaa::RunFiltered) consumes
//   the pooled band exactly as it would the global one.
//
//   Seeded shard filters. A shard's local r-skyband is nearly as large as
//   the global one (skyband size depends only weakly on cardinality), so
//   naively filtering shards does almost S times the global work. Each
//   shard's filter is therefore *seeded* with globally strong pruners —
//   the engine's top-k at the region pivot (and at box corners in low
//   dimension), minus the shard's own records — which r-dominance counts
//   include without emitting (ComputeRSkyband's pruner overload). This
//   keeps per-shard pruning at global strength: a seeded shard counts
//   dominators within shard ∪ seed ⊆ D, so survivors of the seeded filter
//   still include every record with < k dominators in D, and anything it
//   prunes has >= k dominators in D — the pool superset argument above is
//   unchanged.
//
//   Region tiling (T tiles). The query region R is cut into T convex tiles
//   partitioning it (dist/tiler.h) and UTK runs per tile concurrently.
//   Merge invariants: UTK1(R) is the sorted union of per-tile id sets
//   (tiles cover R); for UTK2 the per-tile cell lists concatenate — tiles
//   partition R, so cells never overlap across tiles and the concatenation
//   is again a partition of R carrying exact top-k sets.
//
// Sharding and tiling apply to the r-skyband pipeline (planned RSA or JAA);
// specs the planner resolves to the naive oracle or the SK/ON baselines run
// unchanged on the embedded single engine, as does TopK. Results equal
// Engine::Run's: UTK1 ids byte-identical, UTK2 the same partition of R
// (cell geometry may differ along tile cuts). Thread-safety matches
// Engine: immutable after construction, all query entry points const.
#ifndef UTK_DIST_PARTITIONED_ENGINE_H_
#define UTK_DIST_PARTITIONED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/query_engine.h"
#include "dist/partition.h"
#include "index/rtree.h"
#include "skyline/rskyband.h"

namespace utk {

/// Decomposition knobs. shards <= 1 / tiles == 1 disable the respective
/// axis; tiles == 0 lets the calibrated planner size the tiling per query
/// (see PartitionedEngine::EffectiveTiles — untiled when no cost model is
/// usable); threads <= 0 means DefaultThreads().
struct DistConfig {
  int shards = 1;
  int tiles = 1;
  Partitioner partitioner = Partitioner::kRoundRobin;
  int threads = 0;
};

/// Introspection of the sharded filtering stage (CLI / bench reporting).
struct ShardFilterReport {
  std::vector<int64_t> shard_candidates;  ///< per-shard r-skyband sizes
  std::vector<double> shard_ms;           ///< per-shard filter wall time
  int64_t pool = 0;                       ///< unioned candidate-pool size
  double seed_ms = 0.0;                   ///< seed top-k probes (sequential)
  /// seed_ms + max(shard_ms): the filtering stage's wall time given >= S
  /// cores (on fewer cores the measured wall time degrades toward the sum).
  double critical_ms = 0.0;
};

/// Introspection of one partitioned run, per tile.
struct DistDetail {
  std::vector<ConvexRegion> tiles;              ///< actual tiling of R
  std::vector<ShardFilterReport> filter;        ///< [tile] sharded filter
  std::vector<int64_t> band_sizes;              ///< [tile] pooled band size
};

class PartitionedEngine final : public QueryEngine {
 public:
  /// Takes ownership of `data`: builds the embedded single engine (full
  /// R-tree, used for fallback algorithms, TopK, and the pool re-filter)
  /// plus one re-indexed dataset + R-tree per shard.
  PartitionedEngine(Dataset data, DistConfig config);

  /// Shares an existing engine (its dataset backs the shards; the full
  /// R-tree is reused rather than rebuilt).
  PartitionedEngine(std::shared_ptr<const Engine> base, DistConfig config);

  const Dataset& data() const override { return base_->data(); }
  Algorithm Plan(const QuerySpec& spec) const override {
    return base_->Plan(spec);
  }
  std::optional<std::string> Validate(const QuerySpec& spec) const override {
    return base_->Validate(spec);
  }
  QueryResult Run(const QuerySpec& spec) const override;
  std::vector<int32_t> TopK(const Vec& w, int k) const override {
    return base_->TopK(w, k);
  }

  /// EXPLAIN: dist.run over seed / shard-filter / per-tile refine for specs
  /// the decomposed pipeline answers; delegates to the embedded engine's
  /// tree for fallback algorithms and invalid specs (matching what Run
  /// actually executes).
  PlanNode Explain(const QuerySpec& spec) const override;

  /// The tile count Run will use for `spec`: config().tiles when >= 1,
  /// otherwise (auto) the cost model's argmin of est/T + overhead*(T-1),
  /// capped at the thread count — 1 when no model decision applies.
  int EffectiveTiles(const QuerySpec& spec) const;

  /// Full-control entry point: Run plus optional decomposition
  /// introspection.
  QueryResult Run(const QuerySpec& spec, DistDetail* detail) const;

  /// The sharded filtering stage alone for region `r`: the sorted union of
  /// per-shard r-skyband ids (a provable superset of every top-k set over
  /// r; see the class comment). Runs shards in parallel on config().threads.
  std::vector<int32_t> FilterPool(const ConvexRegion& r, int k,
                                  ShardFilterReport* report = nullptr,
                                  QueryStats* stats = nullptr) const;

  const Engine& base() const { return *base_; }
  const DistConfig& config() const { return config_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Shard {
    /// Local record id -> global id; empty means the identity mapping (the
    /// single-shard case, which aliases the base engine instead of copying).
    std::vector<int32_t> global_ids;
    Dataset owned_records;  ///< re-indexed copy (multi-shard only)
    RTree owned_tree;
    ColumnStore owned_cols;  ///< SoA mirror of owned_records
    const Dataset* records = nullptr;  ///< -> owned_records or base data
    const RTree* tree = nullptr;       ///< -> owned_tree or base tree
    const ColumnStore* cols = nullptr;  ///< -> owned_cols or base cols

    int32_t ToGlobal(int32_t local) const {
      return global_ids.empty() ? local : global_ids[local];
    }
  };

  void BuildShards();
  /// Globally strong seed record ids for region `r`: the engine top-k at
  /// the pivot plus, for low-dimensional boxes, at every corner.
  std::vector<int32_t> SeedIds(const ConvexRegion& r, int k) const;
  /// Filters every (tile, shard) pair in one flat parallel pass:
  /// ids[t][s] = global record ids of shard s's seeded r-skyband over
  /// tiles[t]; stats/ms get one entry per (t, s) task in t-major order and
  /// seed_ms one entry per tile.
  void FilterAll(const std::vector<ConvexRegion>& tiles, int k, int threads,
                 std::vector<std::vector<std::vector<int32_t>>>* ids,
                 std::vector<QueryStats>* stats, std::vector<double>* ms,
                 std::vector<double>* seed_ms) const;

  std::shared_ptr<const Engine> base_;
  DistConfig config_;
  std::vector<Shard> shards_;
  std::vector<int32_t> shard_of_;  ///< global record id -> owning shard
};

}  // namespace utk

#endif  // UTK_DIST_PARTITIONED_ENGINE_H_
