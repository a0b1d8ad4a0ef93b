#include "storage/mapped_engine.h"

#include <numeric>
#include <utility>

#include "core/topk.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "skyline/rskyband.h"

namespace utk {

std::unique_ptr<MappedEngine> MappedEngine::Open(const std::string& path,
                                                 std::string* error) {
  std::unique_ptr<SegmentReader> seg = SegmentReader::Open(path, error);
  if (seg == nullptr) return nullptr;
  std::unique_ptr<MappedEngine> e(new MappedEngine());
  e->tree_ = seg->Tree();
  e->cols_ = seg->Columns();
  const int32_t n = seg->rows();
  e->data_.resize(n);
  for (int32_t i = 0; i < n; ++i) e->data_[i].id = i;
  {
    MutexLock lock(e->mat_mu_);
    e->row_done_.assign(n, 0);
  }
  e->seg_ = std::move(seg);
  // Row 0 anchors DataDim(data_) for the gather constructors downstream;
  // every other row stays empty until a query proves it needs it.
  if (n > 0) {
    const int32_t zero = 0;
    e->EnsureRows({&zero, 1});
  }
  return e;
}

void MappedEngine::EnsureRows(std::span<const int32_t> ids) const {
  if (all_done_.load(std::memory_order_acquire)) return;
  UTK_SPAN_VAL("mapped.materialize", static_cast<int64_t>(ids.size()));
  MutexLock lock(mat_mu_);
  int64_t gathered = 0;
  const int d = seg_->dim();
  for (int32_t id : ids) {
    if (row_done_[id]) continue;
    Vec& attrs = data_[id].attrs;
    attrs.resize(d);
    for (int c = 0; c < d; ++c) attrs[c] = seg_->col(c)[id];
    row_done_[id] = 1;
    ++gathered;
  }
  rows_materialized_.fetch_add(gathered, std::memory_order_relaxed);
  static obs::Counter& rows = obs::MetricRegistry::Global().GetCounter(
      "utk_mapped_rows_materialized_total");
  rows.Add(gathered);
}

void MappedEngine::EnsureAll() const {
  if (all_done_.load(std::memory_order_acquire)) return;
  std::vector<int32_t> all(seg_->rows());
  std::iota(all.begin(), all.end(), 0);
  EnsureRows(all);
  all_done_.store(true, std::memory_order_release);
}

const Dataset& MappedEngine::data() const {
  EnsureAll();
  return data_;
}

QueryResult MappedEngine::Execute(const QuerySpec& spec,
                                  const PlanDecision& decision) const {
  const Algorithm algo = decision.algorithm;
  const int64_t before = rows_materialized();
  QueryResult r;
  if (algo == Algorithm::kRsa || algo == Algorithm::kJaa) {
    // The box-region filter runs purely on the borrowed columns; a general
    // convex region evaluates raw records in its LP tests, so gather first.
    if (!spec.region.is_box()) EnsureAll();
    // Refinement (and its drill probes) touch exactly the band rows.
    r = RunRSkyband(
        data_, tree_, &cols_, spec, algo,
        [this](const RSkybandResult& band) { EnsureRows(band.ids); });
  } else {
    EnsureAll();
    r = compact_.Execute(epoch(), data_, {seg_->alive_bytes(),
                                          static_cast<size_t>(seg_->rows())},
                         spec, decision);
  }
  r.stats.rows_materialized = rows_materialized() - before;
  r.stats.mapped_bytes = static_cast<int64_t>(seg_->file_bytes());
  return r;
}

std::vector<PlanNode> MappedEngine::ExplainChildren(
    const QuerySpec& spec, const PlanDecision& decision) const {
  const bool band_path = decision.algorithm == Algorithm::kRsa ||
                         decision.algorithm == Algorithm::kJaa;
  PlanNode mat;
  mat.op = "mapped.materialize";
  if (band_path && spec.region.is_box()) {
    mat.detail = "band rows on demand";
    mat.est_rows = EstimateBandSize(size(), spec.k, pref_dim());
  } else {
    mat.detail = "full catalog gather";
    mat.est_rows = seg_->rows();
  }
  std::vector<PlanNode> kids = QueryEngine::ExplainChildren(spec, decision);
  kids.insert(kids.begin(), std::move(mat));
  return kids;
}

std::vector<int32_t> MappedEngine::TopK(const Vec& w, int k) const {
  // Branch-and-bound over MBBs + the borrowed columns; no AoS rows needed.
  return TopKRTree(data_, tree_, w, k, nullptr, &cols_);
}

}  // namespace utk
