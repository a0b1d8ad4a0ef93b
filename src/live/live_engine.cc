#include "live/live_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "core/topk.h"
#include "core/validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace utk {
namespace {

/// Reduced coefficients of f(w) = S(q)(w) - S(t)(w) (see rdominance.cc).
void DiffScore(const Vec& q, const Vec& t, Vec* coef, Scalar* offset) {
  const int d = static_cast<int>(q.size());
  coef->resize(d - 1);
  *offset = q[d - 1] - t[d - 1];
  for (int i = 0; i < d - 1; ++i)
    (*coef)[i] = (q[i] - q[d - 1]) - (t[i] - t[d - 1]);
}

/// Reduced coefficients of the score S(x)(w) itself: x_i - x_d and x_d.
void ScoreOf(const Vec& x, Vec* coef, Scalar* offset) {
  const int d = static_cast<int>(x.size());
  coef->resize(d - 1);
  *offset = x[d - 1];
  for (int i = 0; i < d - 1; ++i) (*coef)[i] = x[i] - x[d - 1];
}

/// min over `region` of min over `ids` of S(t), or -inf when a range is
/// unavailable (the floor then settles nothing).
Scalar ScoreFloor(const Dataset& data, const std::vector<int32_t>& ids,
                  const ConvexRegion& region) {
  Scalar floor = std::numeric_limits<Scalar>::infinity();
  Vec coef;
  Scalar offset;
  for (int32_t t : ids) {
    ScoreOf(data[t].attrs, &coef, &offset);
    auto range = region.RangeOf(coef, offset);
    if (!range.has_value()) return -std::numeric_limits<Scalar>::infinity();
    floor = std::min(floor, range->first);
  }
  return floor;
}

/// ValidateDataset's verdict on a starting catalog; an empty one is valid
/// (the catalog is then built with Insert).
std::optional<std::string> StartError(const Dataset& data) {
  if (data.empty()) return std::nullopt;
  return ValidateDataset(data);
}

}  // namespace

LiveEngine::LiveEngine(Dataset data)
    : QueryEngine("live.run"),
      data_(std::move(data)),
      alive_(data_.size(), 1),
      tree_(RTree::BulkLoad(data_)),
      cols_(data_),
      data_error_(StartError(data_)) {
  live_.store(static_cast<int64_t>(data_.size()), std::memory_order_relaxed);
  dim_.store(DataDim(data_), std::memory_order_relaxed);
}

LiveEngine::LiveEngine(Dataset data, std::vector<char> alive, RTree tree,
                       uint64_t epoch)
    : QueryEngine("live.run"),
      data_(std::move(data)),
      alive_(std::move(alive)),
      tree_(std::move(tree)),
      cols_(data_),
      data_error_(StartError(data_)) {
  assert(alive_.size() == data_.size());
  int64_t live = 0;
  for (char a : alive_) live += a ? 1 : 0;
  assert(tree_.num_records() == live);
  live_.store(live, std::memory_order_relaxed);
  dim_.store(DataDim(data_), std::memory_order_relaxed);
  epoch_.store(epoch, std::memory_order_relaxed);
}

LiveEngine::~LiveEngine() = default;

// ---------------------------------------------------------------- queries

void LiveEngine::ReadPinned(const std::function<void()>& body) const {
  ReaderLock lock(mu_);
  body();
}

QueryResult LiveEngine::Execute(const QuerySpec& spec,
                                const PlanDecision& decision) const {
  mu_.AssertReaderHeld();  // Run calls Execute inside ReadPinned only
  const Algorithm algo = decision.algorithm;
  if (algo == Algorithm::kRsa || algo == Algorithm::kJaa) {
    // The live tree indexes exactly the alive records, so this is the
    // filter a from-scratch Engine over the compacted catalog would run.
    direct_queries_.fetch_add(1, std::memory_order_relaxed);
    return RunRSkyband(data_, tree_, &cols_, spec, algo);
  }
  fallback_queries_.fetch_add(1, std::memory_order_relaxed);
  return compact_.Execute(epoch(), data_, alive_, spec, decision);
}

std::vector<int32_t> LiveEngine::TopK(const Vec& w, int k) const {
  ReaderLock lock(mu_);
  return TopKRTree(data_, tree_, w, k, nullptr, &cols_);
}

bool LiveEngine::IsLive(int32_t id) const {
  ReaderLock lock(mu_);
  return id >= 0 && id < static_cast<int32_t>(alive_.size()) &&
         alive_[id] != 0;
}

Dataset LiveEngine::CompactSnapshot(std::vector<int32_t>* live_ids) const {
  ReaderLock lock(mu_);
  return CompactRecords(data_, alive_, live_ids);
}

// ---------------------------------------------------------------- updates

int32_t LiveEngine::InsertLocked(Record rec, UpdateEvent* event) {
  const int32_t n = static_cast<int32_t>(data_.size());
  if (rec.id > n) return -1;  // ids are assigned densely, no gaps
  if (!data_.empty() && rec.Dim() != dim()) return -1;
  if (NonFiniteAttribute(rec).has_value()) return -1;
  int32_t id = rec.id;
  if (id == n || id < 0) {
    id = n;
    rec.id = id;
    data_.push_back(std::move(rec));
    alive_.push_back(1);
  } else {
    if (alive_[id]) return -1;  // live ids are never overwritten
    rec.id = id;
    data_[id] = std::move(rec);
    alive_[id] = 1;
  }
  // Keep the SoA mirror in lockstep (append or overwrite the tombstone's
  // row) before any index reads the new record.
  cols_.SetRow(id, data_[id].attrs);
  tree_.Insert(data_, id);
  if (dim() == 0) dim_.store(data_[id].Dim(), std::memory_order_release);
  live_.fetch_add(1, std::memory_order_release);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  event->inserted.push_back(data_[id]);
  UpdateOp op;
  op.kind = UpdateKind::kInsert;
  op.record = data_[id];  // assigned id recorded, so replay is id-exact
  op.id = id;
  event->ops.push_back(std::move(op));
  return id;
}

bool LiveEngine::EraseLocked(int32_t id, UpdateEvent* event) {
  if (id < 0 || id >= static_cast<int32_t>(alive_.size()) || !alive_[id])
    return false;
  // The tombstone keeps the attributes so invalidation predicates and
  // revivals can still read them.
  tree_.Erase(data_, id);
  alive_[id] = 0;
  live_.fetch_sub(1, std::memory_order_release);
  erases_.fetch_add(1, std::memory_order_relaxed);
  event->erased.push_back(id);
  UpdateOp op;
  op.kind = UpdateKind::kErase;
  op.id = id;
  event->ops.push_back(std::move(op));
  return true;
}

int32_t LiveEngine::Insert(Record rec) {
  WriterLock lock(mu_);
  UpdateEvent event;
  const int32_t id = InsertLocked(std::move(rec), &event);
  if (id >= 0) Commit(event);
  return id;
}

bool LiveEngine::Erase(int32_t id) {
  WriterLock lock(mu_);
  UpdateEvent event;
  const bool ok = EraseLocked(id, &event);
  if (ok) Commit(event);
  return ok;
}

int LiveEngine::ApplyBatch(std::span<const UpdateOp> ops) {
  UTK_SPAN_VAL("live.apply_batch", static_cast<int64_t>(ops.size()));
  WriterLock lock(mu_);
  UpdateEvent event;
  int applied = 0;
  for (const UpdateOp& op : ops) {
    if (op.kind == UpdateKind::kInsert) {
      if (InsertLocked(op.record, &event) >= 0) ++applied;
    } else {
      if (EraseLocked(op.id, &event)) ++applied;
    }
  }
  if (applied > 0) Commit(event);
  return applied;
}

// ---------------------------------------------------------------- serving

void LiveEngine::AttachCache(ResultCache* cache) {
  MutexLock lock(caches_mu_);
  if (std::find(caches_.begin(), caches_.end(), cache) == caches_.end())
    caches_.push_back(cache);
}

void LiveEngine::DetachCache(ResultCache* cache) {
  MutexLock lock(caches_mu_);
  caches_.erase(std::remove(caches_.begin(), caches_.end(), cache),
                caches_.end());
}

bool LiveEngine::CouldAffect(const UpdateEvent& event,
                             std::span<const ScoreForm> inserted,
                             const CacheEntryView& view,
                             int64_t* exact_tests) const {
  // An empty UTK1 answer should never have been cached; drop defensively.
  if (view.result.ids.empty()) return true;
  // Erase: removing a record changes some top-k over R iff it was IN some
  // top-k over R — exactly membership in the cached UTK1 id set.
  for (int32_t id : event.erased) {
    if (std::binary_search(view.result.ids.begin(), view.result.ids.end(),
                           id))
      return true;
  }
  if (inserted.empty()) return false;
  // Insert, first the floor: max_R(S_q - S_t) <= max_R S_q - min_R S_t <=
  // top - floor, so a top below the floor by the margin puts every pair
  // below -2 kEps, a full kEps under the exact test's threshold. The floor
  // is memoized: a kept entry's ids and their attributes never change
  // (DESIGN.md §9).
  if (std::isnan(view.floor))
    view.floor = ScoreFloor(data_, view.result.ids, view.region);
  Scalar top = -std::numeric_limits<Scalar>::infinity();
  for (const ScoreForm& q : inserted) {
    auto range = view.region.RangeOf(q.coef, q.offset);
    if (!range.has_value()) {
      top = std::numeric_limits<Scalar>::infinity();
      break;
    }
    top = std::max(top, range->second);
  }
  const Scalar margin =
      2.0 * kEps * std::max({Scalar{1}, std::abs(top), std::abs(view.floor)});
  if (top < view.floor - margin) return false;
  // The exact test: if the new record is outscored by every cached answer
  // member everywhere in R, it cannot displace any top-k (the old top-k at
  // each w in R is a subset of the cached ids), so the entry stands.
  // Otherwise be conservative. One affine range per (record, cached id) —
  // closed form for box regions.
  ++*exact_tests;
  Vec coef;
  Scalar offset;
  for (const Record& q : event.inserted) {
    for (int32_t t : view.result.ids) {
      DiffScore(q.attrs, data_[t].attrs, &coef, &offset);
      auto range = view.region.RangeOf(coef, offset);
      if (!range.has_value() || range->second >= -kEps) return true;
    }
  }
  return false;
}

void LiveEngine::Commit(const UpdateEvent& event) {
  UTK_SPAN_VAL("live.commit", static_cast<int64_t>(event.ops.size()));
  Timer timer;
  const uint64_t from = epoch_.load(std::memory_order_relaxed);
  const uint64_t to = from + 1;
  epoch_.store(to, std::memory_order_release);
  // Durability first: the WAL records the batch before any reader can act
  // on the new epoch through a cache sweep.
  {
    MutexLock lock(logs_mu_);
    if (!logs_.empty()) {
      const CatalogView view{data_, alive_, tree_, to};
      for (UpdateLog* log : logs_) log->OnCommit(event.ops, view);
    }
  }
  int64_t swept = 0;
  int64_t exact_tests = 0;
  {
    UTK_SPAN("live.cache_sweep");
    MutexLock lock(caches_mu_);
    if (!caches_.empty()) {
      // Each inserted record's score form, once per batch.
      std::vector<ScoreForm> inserted(event.inserted.size());
      for (std::size_t i = 0; i < inserted.size(); ++i)
        ScoreOf(event.inserted[i].attrs, &inserted[i].coef,
                &inserted[i].offset);
      for (ResultCache* cache : caches_) {
        cache->ApplyInvalidation(from, to, [&](const CacheEntryView& view) {
          ++swept;
          return CouldAffect(event, inserted, view, &exact_tests);
        });
      }
    }
  }
  auto& reg = obs::MetricRegistry::Global();
  static obs::Counter& commits = reg.GetCounter("utk_live_commits_total");
  static obs::Counter& inserts = reg.GetCounter("utk_live_inserts_total");
  static obs::Counter& erases = reg.GetCounter("utk_live_erases_total");
  static obs::Counter& sweep_entries =
      reg.GetCounter("utk_live_sweep_entries_total");
  static obs::Counter& sweep_exact =
      reg.GetCounter("utk_live_sweep_exact_tests_total");
  static obs::Histogram& latency =
      reg.GetHistogram("utk_live_commit_latency_us");
  commits.Add();
  inserts.Add(static_cast<int64_t>(event.inserted.size()));
  erases.Add(static_cast<int64_t>(event.erased.size()));
  sweep_entries.Add(swept);
  sweep_exact.Add(exact_tests);
  latency.Observe(static_cast<int64_t>(timer.ElapsedMs() * 1000.0));
}

void LiveEngine::AttachLog(UpdateLog* log) {
  MutexLock lock(logs_mu_);
  if (std::find(logs_.begin(), logs_.end(), log) == logs_.end())
    logs_.push_back(log);
}

void LiveEngine::DetachLog(UpdateLog* log) {
  MutexLock lock(logs_mu_);
  logs_.erase(std::remove(logs_.begin(), logs_.end(), log), logs_.end());
}

void LiveEngine::WithSnapshot(
    const std::function<void(const CatalogView&)>& fn) const {
  ReaderLock lock(mu_);
  fn(CatalogView{data_, alive_, tree_, epoch()});
}

LiveCounters LiveEngine::counters() const {
  ReaderLock lock(mu_);
  LiveCounters c;
  c.epoch = epoch();
  c.live = live_size();
  c.inserts = inserts_.load(std::memory_order_relaxed);
  c.erases = erases_.load(std::memory_order_relaxed);
  c.direct_queries = direct_queries_.load(std::memory_order_relaxed);
  c.fallback_queries = fallback_queries_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace utk
