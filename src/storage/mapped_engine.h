// MappedEngine — answers queries straight off an mmap'd segment.
//
// Cold-open path of the persistence tier: SegmentReader::Open hands this
// engine a borrowed ColumnStore over the file's column blocks and the
// deserialized R-tree, and the first query runs without materializing the
// catalog. That works because the whole hot pipeline is SoA:
//
//   * filtering (skyline/rskyband.cc) over a box region evaluates
//     dominance through the BoxGapEvaluator on the borrowed columns and
//     never dereferences an AoS record;
//   * RSA/JAA refinement (core/rsa.cc, core/jaa.cc) touches only the band
//     rows `data[band.ids[...]]` — a few hundred records, gathered lazily
//     from the mapped columns between filter and refine;
//   * TopK's branch-and-bound reads MBBs and columns only.
//
// AoS records materialize on demand: band rows before refinement, the whole
// catalog only for paths that genuinely scan it (non-box regions, the
// SK/ON baselines, the naive oracle, or an external data() call). Rows
// materialize at most once, under a mutex, and are never rewritten, so
// concurrent const queries stay race-free (the QueryEngine contract).
// QueryStats reports the work: rows_materialized counts the gathers a
// query caused, mapped_bytes gauges the zero-copy file size.
//
// Queries run the QueryEngine pipeline (api/query_engine.h), root span
// mapped.run; Execute wraps RunRSkyband with that materialization and
// stamps rows_materialized / mapped_bytes. Semantics match a LiveEngine
// recovered from the same segment with an empty WAL: tombstones keep their
// ids, size() is the live count the planner sees, and baseline/naive specs
// answer on the shared CompactFallback with ids mapped back — so the
// differential tests can compare the two directly.
#ifndef UTK_STORAGE_MAPPED_ENGINE_H_
#define UTK_STORAGE_MAPPED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/annotations.h"
#include "api/query_engine.h"
#include "exec/column_store.h"
#include "index/rtree.h"
#include "storage/segment.h"

namespace utk {

class MappedEngine final : public QueryEngine {
 public:
  /// Opens (and fully verifies — see SegmentReader) the segment at `path`.
  /// nullptr with a diagnostic on any validation failure.
  static std::unique_ptr<MappedEngine> Open(const std::string& path,
                                            std::string* error = nullptr);

  MappedEngine(const MappedEngine&) = delete;
  MappedEngine& operator=(const MappedEngine&) = delete;

  /// Forces full materialization — only call this when you need the AoS
  /// catalog; queries don't.
  const Dataset& data() const override;

  std::vector<int32_t> TopK(const Vec& w, int k) const override;

  /// The epoch the segment was saved at.
  uint64_t epoch() const override { return seg_->epoch(); }
  /// From segment metadata — planning never touches the lazy dataset.
  int64_t size() const override { return seg_->live(); }
  int dim() const override { return seg_->dim(); }

  int64_t live_size() const { return seg_->live(); }
  const SegmentReader& segment() const { return *seg_; }

  /// AoS rows gathered so far over the engine's lifetime.
  int64_t rows_materialized() const {
    return rows_materialized_.load(std::memory_order_relaxed);
  }

 private:
  MappedEngine() : QueryEngine("mapped.run") {}

  /// RSA/JAA through RunRSkyband with the band rows gathered between
  /// filter and refinement; everything else on the compact fallback.
  QueryResult Execute(const QuerySpec& spec,
                      const PlanDecision& decision) const override;
  /// mapped.materialize ahead of the planned algorithm's filter/refine
  /// subtree.
  std::vector<PlanNode> ExplainChildren(
      const QuerySpec& spec, const PlanDecision& decision) const override;
  void EnsureRows(std::span<const int32_t> ids) const;
  void EnsureAll() const;

  std::unique_ptr<SegmentReader> seg_;
  RTree tree_;
  ColumnStore cols_;  ///< borrowed view over the mapped column blocks

  mutable Mutex mat_mu_;
  /// Rows gathered on demand. Deliberately NOT guarded_by(mat_mu_): a row
  /// is written exactly once, under mat_mu_, before row_done_[id] (or
  /// all_done_) publishes it — afterwards the hot pipeline reads it
  /// lock-free. The analysis can't express write-once publication; the
  /// guarded row_done_ bitmap is the machine-checked half of the protocol.
  mutable Dataset data_;
  mutable std::vector<char> row_done_ UTK_GUARDED_BY(mat_mu_);
  mutable std::atomic<bool> all_done_{false};
  mutable std::atomic<int64_t> rows_materialized_{0};

  CompactFallback compact_;
};

}  // namespace utk

#endif  // UTK_STORAGE_MAPPED_ENGINE_H_
