// utk::Engine — the single entry point for answering UTK queries.
//
// An Engine owns a Dataset and its R-tree (built once, Section 3.1), accepts
// declarative QuerySpecs, and dispatches to the right algorithm — RSA, JAA,
// the SK/ON baselines, or the naive oracle — picking one itself under
// Algorithm::kAuto. Independent queries run concurrently via RunBatch with
// deterministic, input-ordered results. All examples, benchmarks, and
// integration tests go through this facade; only unit tests construct the
// algorithm classes directly.
#ifndef UTK_API_ENGINE_H_
#define UTK_API_ENGINE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/query.h"
#include "api/query_engine.h"
#include "common/annotations.h"
#include "common/types.h"
#include "exec/column_store.h"
#include "index/rtree.h"

namespace utk {

// Engine supplies Execute to the QueryEngine pipeline (api/query_engine.h),
// root span engine.run. Thread-safety: immutable after construction; every
// query entry point is const and reads the dataset and R-tree only, so any
// number of threads (and serving sessions — see serve/server.h) may share
// one engine without synchronization. Move-only: share a single instance
// (e.g. via std::shared_ptr<const Engine>) instead of copying. Moving is
// cheap and safe — the R-tree stores record ids, never pointers into the
// dataset vector.
class Engine final : public QueryEngine {
 public:
  /// Takes ownership of `data` and bulk-loads the R-tree once. The dataset
  /// must satisfy the repo invariant data[i].id == i (all generators and
  /// loaders do).
  explicit Engine(Dataset data);

  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Loads a CSV dataset (see data/io.h) and builds an engine over it.
  /// Returns nullopt when the file is missing, malformed, or empty.
  static std::optional<Engine> FromCsvFile(const std::string& path);

  const Dataset& data() const override { return data_; }
  int64_t size() const override { return static_cast<int64_t>(data_.size()); }
  int dim() const override { return DataDim(data_); }
  const RTree& tree() const { return tree_; }
  /// The SoA mirror of data() the hot paths consume, exposed so benchmarks
  /// and tests share it.
  const ColumnStore& cols() const { return cols_; }

  /// Branch-and-bound top-k over the R-tree (no dataset scan).
  std::vector<int32_t> TopK(const Vec& w, int k) const override;

 private:
  // Runs decisions its outer engine's Run already made.
  friend class CompactFallback;

  /// RSA/JAA through RunRSkyband over the bulk-loaded tree; the SK/ON
  /// baselines and the naive oracle directly.
  QueryResult Execute(const QuerySpec& spec,
                      const PlanDecision& decision) const override;

  Dataset data_;
  RTree tree_;
  ColumnStore cols_;
};

/// The r-skyband pipeline every RSA/JAA plan runs, on Engine and
/// LiveEngine alike: Rsa::Run (Section 4) for kRsa, Jaa::Run (Section 5)
/// otherwise, over `tree` with `spec`'s knobs. Each runs the BBS filter
/// (Section 4.1), then refines; stats sum both, candidates = band size.
QueryResult RunRSkyband(const Dataset& data, const RTree& tree,
                        const ColumnStore* cols, const QuerySpec& spec,
                        Algorithm algo);

/// The records with alive[i] != 0 re-indexed 0..m-1 in id order — what a
/// from-scratch Engine would be built on; `stable_ids` (optional) receives
/// the strictly increasing new-id -> stable-id map.
Dataset CompactRecords(const Dataset& data, std::span<const char> alive,
                       std::vector<int32_t>* stable_ids = nullptr);

/// The stable-id compact fallback LiveEngine runs for plans outside the
/// r-skyband pipeline (SK/ON baselines, naive oracle):
/// an Engine over CompactRecords, rebuilt at most once per epoch, whose
/// answer ids map back monotonically (sorted lists and the canonical cell
/// order survive). Thread-safe.
class CompactFallback {
 public:
  /// Executes `decision` on the engine for `epoch`, (re)built from
  /// `data`/`alive` when the cached one is for another epoch.
  QueryResult Execute(uint64_t epoch, const Dataset& data,
                      std::span<const char> alive, const QuerySpec& spec,
                      const PlanDecision& decision) const;

 private:
  struct Snapshot {
    std::vector<int32_t> stable_ids;
    Engine engine;
  };

  mutable Mutex mu_;
  mutable std::shared_ptr<const Snapshot> snapshot_ UTK_GUARDED_BY(mu_);
  mutable uint64_t epoch_ UTK_GUARDED_BY(mu_) = 0;
};

}  // namespace utk

#endif  // UTK_API_ENGINE_H_
