#include "serve/result_cache.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "geometry/linear.h"
#include "obs/metrics.h"

namespace utk {
namespace {

void AppendScalar(std::string* out, Scalar v) {
  if (v == 0.0) v = 0.0;  // collapse -0.0 so equal regions fingerprint equal
  char buf[sizeof(Scalar)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

void AppendInt32(std::string* out, int32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

int64_t BytesOfVec(const Vec& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(Scalar) + sizeof(Vec));
}

int64_t BytesOfRows(const HalfspaceRows& rows) {
  return static_cast<int64_t>(sizeof(rows)) + rows.Bytes();
}

int64_t BytesOfCell(const Cell& c) {
  return BytesOfRows(c.bounds) + BytesOfVec(c.interior) +
         static_cast<int64_t>(c.covering.capacity() * sizeof(int) +
                              sizeof(Cell));
}

}  // namespace

double CacheCounters::HitRate() const {
  const int64_t total = Requests();
  if (total == 0) return 0.0;
  return static_cast<double>(exact_hits) / static_cast<double>(total);
}

std::string CanonicalFingerprint(const QuerySpec& spec, Algorithm planned) {
  std::string key;
  key.reserve(64);
  key.push_back(spec.mode == QueryMode::kUtk1 ? '1' : '2');
  key.push_back(static_cast<char>('a' + static_cast<int>(planned)));
  AppendInt32(&key, spec.k);
  AppendInt32(&key, spec.region.dim());
  if (spec.region.is_box()) {
    key.push_back('B');
    for (Scalar v : spec.region.box_lo()) AppendScalar(&key, v);
    for (Scalar v : spec.region.box_hi()) AppendScalar(&key, v);
    return key;
  }
  key.push_back('H');
  // Normalize each constraint to a unit normal, serialize, and byte-sort so
  // the fingerprint is invariant to constraint order.
  std::vector<std::string> parts;
  parts.reserve(spec.region.constraints().size());
  for (const Halfspace& h : spec.region.constraints()) {
    const Scalar norm = Norm(h.a);
    std::string part;
    if (norm > 0.0) {
      for (Scalar v : h.a) AppendScalar(&part, v / norm);
      AppendScalar(&part, h.b / norm);
    } else {
      for (Scalar v : h.a) AppendScalar(&part, v);
      AppendScalar(&part, h.b);
    }
    parts.push_back(std::move(part));
  }
  std::sort(parts.begin(), parts.end());
  for (const std::string& part : parts) key += part;
  return key;
}

int64_t EstimateResultBytes(const QueryResult& r) {
  int64_t total = static_cast<int64_t>(sizeof(QueryResult));
  total += static_cast<int64_t>(r.error.capacity());
  total += static_cast<int64_t>(r.ids.capacity() * sizeof(int32_t));
  for (const Utk2Cell& c : r.utk2.cells) {
    total += BytesOfRows(c.bounds) + BytesOfVec(c.witness) +
             static_cast<int64_t>(c.topk.capacity() * sizeof(int32_t) +
                                  sizeof(Utk2Cell));
  }
  for (const auto& rec : r.per_record.records) {
    total += static_cast<int64_t>(sizeof(rec));
    for (const Cell& c : rec.cells) total += BytesOfCell(c);
  }
  return total;
}

ResultCache::ResultCache(CacheConfig config) : config_(config) {
  if (config_.shards < 1) config_.shards = 1;
  if (config_.max_entries < 1) config_.max_entries = 1;
  const auto shard_count = static_cast<std::size_t>(config_.shards);
  // Ceil-divided slices so the shard budgets cover the global ones.
  entries_per_shard_ = (config_.max_entries + shard_count - 1) / shard_count;
  bytes_per_shard_ =
      static_cast<int64_t>((config_.max_bytes + shard_count - 1) / shard_count);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::optional<QueryResult> ResultCache::Lookup(const QuerySpec& spec,
                                               Algorithm planned,
                                               uint64_t epoch) {
  const std::string key = CanonicalFingerprint(spec, planned);
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  // An entry tagged with another epoch answers another dataset version: a
  // miss, and the entry stays for the sweep (or an admit) to settle.
  if (it == shard.index.end() || it->second->epoch != epoch) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  exact_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->result;
}

int64_t ResultCache::Admit(const QuerySpec& spec, Algorithm planned,
                           const QueryResult& result, uint64_t epoch) {
  if (!result.ok) return 0;
  if (epoch < latest_epoch_.load(std::memory_order_acquire)) {
    // Computed against a dataset an invalidation sweep has superseded.
    stale_rejects_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  Entry entry;
  entry.key = CanonicalFingerprint(spec, planned);
  entry.mode = spec.mode;
  entry.k = spec.k;
  entry.epoch = epoch;
  entry.region = spec.region;
  entry.result = result;
  entry.bytes = EstimateResultBytes(result);

  Shard& shard = ShardFor(entry.key);
  int64_t evicted = 0;
  {
    MutexLock lock(shard.mu);
    auto it = shard.index.find(entry.key);
    if (it != shard.index.end()) {
      shard.bytes -= it->second->bytes;
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    shard.bytes += entry.bytes;
    shard.lru.push_front(std::move(entry));
    shard.index.emplace(shard.lru.front().key, shard.lru.begin());
    // Enforce the budgets, but never evict the entry just admitted: an
    // oversized result simply passes through the cache.
    while (shard.lru.size() > 1 &&
           (shard.lru.size() > entries_per_shard_ ||
            shard.bytes > bytes_per_shard_)) {
      const Entry& victim = shard.lru.back();
      shard.bytes -= victim.bytes;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++evicted;
    }
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& admits = obs::MetricRegistry::Global().GetCounter(
      "utk_serve_cache_admits_total");
  admits.Add();
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    static obs::Counter& evictions = obs::MetricRegistry::Global().GetCounter(
        "utk_serve_cache_evictions_total");
    evictions.Add(evicted);
  }
  return evicted;
}

int64_t ResultCache::ApplyInvalidation(uint64_t from_epoch, uint64_t to_epoch,
                                       const InvalidationPredicate& affected) {
  // Raise the stale-admit floor first: a query that read the pre-update
  // epoch but finishes after this sweep must not plant its stale answer.
  uint64_t prev = latest_epoch_.load(std::memory_order_relaxed);
  while (prev < to_epoch && !latest_epoch_.compare_exchange_weak(
                                prev, to_epoch, std::memory_order_acq_rel)) {
  }
  int64_t dropped = 0;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->epoch == to_epoch) {  // already answers the new dataset
        ++it;
        continue;
      }
      bool drop = it->epoch != from_epoch;  // missed a sweep: unauditable
      if (!drop)
        drop = affected(CacheEntryView{it->mode, it->k, it->region,
                                       it->result, it->floor});
      if (!drop) {
        // Proven unaffected: re-tag to the new epoch in place. The key
        // carries no epoch, so the index needs no change.
        it->epoch = to_epoch;
        ++it;
        continue;
      }
      shard->bytes -= it->bytes;
      shard->index.erase(it->key);
      it = shard->lru.erase(it);
      ++dropped;
    }
  }
  invalidation_sweeps_.fetch_add(1, std::memory_order_relaxed);
  if (dropped > 0) invalidated_.fetch_add(dropped, std::memory_order_relaxed);
  static obs::Counter& invalidated = obs::MetricRegistry::Global().GetCounter(
      "utk_serve_cache_invalidated_total");
  invalidated.Add(dropped);
  return dropped;
}

CacheCounters ResultCache::Counters() const {
  CacheCounters c;
  c.exact_hits = exact_hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  c.inserts = inserts_.load(std::memory_order_relaxed);
  c.invalidation_sweeps =
      invalidation_sweeps_.load(std::memory_order_relaxed);
  c.invalidated = invalidated_.load(std::memory_order_relaxed);
  c.stale_rejects = stale_rejects_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    c.entries += static_cast<int64_t>(shard->lru.size());
    c.bytes += shard->bytes;
  }
  return c;
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

}  // namespace utk
