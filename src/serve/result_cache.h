// ResultCache — a thread-safe, sharded LRU cache of UTK query results keyed
// by canonical QuerySpec fingerprints.
//
// Reuse is exact-match only: Lookup returns the cached result verbatim when
// a request's fingerprint (mode, k, planned algorithm, canonical region)
// matches an entry whose epoch tag equals the request's dataset epoch, and
// nothing otherwise — the Server (serve/server.h) then runs the engine and
// Admits the fresh answer. A served answer is therefore always
// byte-identical to the engine's Run. Hits refresh LRU recency.
//
// Sharding: entries are distributed over `shards` independent LRU lists by
// fingerprint hash; each shard has its own mutex and an equal slice of the
// entry/byte budgets, so concurrent sessions on different fingerprints never
// contend.
#ifndef UTK_SERVE_RESULT_CACHE_H_
#define UTK_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/query.h"
#include "common/annotations.h"

namespace utk {

/// Capacity and behavior knobs for a ResultCache.
struct CacheConfig {
  std::size_t max_entries = 4096;        ///< total entries across shards
  std::size_t max_bytes = 256ull << 20;  ///< total estimated result bytes
  int shards = 8;                        ///< independent LRU shards (>= 1)
};

/// Monotonic cache-wide counters (a consistent snapshot via Counters()).
struct CacheCounters {
  int64_t exact_hits = 0;     ///< Lookup returned the cached result verbatim
  /// Always 0: the cache reuses exact matches only. Kept until perfbench,
  /// which reads it, drops it.
  int64_t semantic_hits = 0;
  int64_t misses = 0;         ///< Lookup found no entry
  int64_t evictions = 0;      ///< entries dropped by the LRU budgets
  int64_t inserts = 0;        ///< successful Admit calls
  int64_t entries = 0;        ///< entries currently resident
  int64_t bytes = 0;          ///< estimated bytes currently resident
  // Live-update accounting (src/live/): see ApplyInvalidation.
  int64_t invalidation_sweeps = 0;  ///< epoch-advance sweeps applied
  int64_t invalidated = 0;          ///< entries dropped by sweeps
  int64_t stale_rejects = 0;        ///< admits refused for a superseded epoch

  int64_t Requests() const { return exact_hits + misses; }
  /// Fraction of requests served from the cache.
  double HitRate() const;
};

/// Canonical fingerprint of a spec's semantic identity: mode, k, the planned
/// (kAuto-resolved) algorithm and the region in canonical form — box corners
/// for boxes, otherwise the constraint list normalized to unit normals and
/// byte-sorted so constraint order never matters. Execution knobs
/// (use_drill/use_lemma1/wave_cap) are excluded: they change the work, never
/// the answer. The dataset epoch is not part of the key; each entry carries
/// it as a tag that Lookup compares.
std::string CanonicalFingerprint(const QuerySpec& spec, Algorithm planned);

/// Estimated resident size of a cached result, for the byte budget.
int64_t EstimateResultBytes(const QueryResult& r);

/// View of a cached entry handed to invalidation predicates: the entry
/// itself is read-only, `floor` is a slot the predicate owns.
struct CacheEntryView {
  QueryMode mode;
  int k;
  const ConvexRegion& region;    ///< region the cached answer covers
  const QueryResult& result;     ///< the cached answer itself
  /// Per-entry memo for the predicate: NaN when the entry is admitted, then
  /// kept for the entry's life (re-tagging leaves it alone). Its meaning is
  /// the predicate's (LiveEngine stores its score floor here).
  Scalar& floor;
};

/// Decides whether an update batch *could* change a cached answer. Must be
/// conservative: returning true for an unaffected entry only costs a cache
/// miss; returning false for an affected one would serve a stale answer.
using InvalidationPredicate = std::function<bool(const CacheEntryView&)>;

class ResultCache {
 public:
  explicit ResultCache(CacheConfig config = {});

  /// The cached answer for `spec`, or nullopt. `planned` must be the
  /// engine's Plan(spec) so kAuto specs fingerprint identically to their
  /// resolved form, and `epoch` the engine's epoch() read before running (0
  /// for immutable engines). Hits only when the entry's epoch tag equals
  /// `epoch`; an entry at any other epoch is a miss and stays resident.
  /// Thread-safe; counts exactly one hit or one miss and refreshes the hit
  /// entry's recency.
  std::optional<QueryResult> Lookup(const QuerySpec& spec, Algorithm planned,
                                    uint64_t epoch = 0);

  /// Inserts a fresh engine result tagged `epoch` (replacing any entry with
  /// the same fingerprint, whatever its tag) and enforces the budgets.
  /// Returns the number of entries evicted by this admission. Results that
  /// failed (!ok) are not cached, and neither are results whose `epoch` an
  /// invalidation sweep has already superseded — a query racing a dataset
  /// update can never plant a stale answer.
  int64_t Admit(const QuerySpec& spec, Algorithm planned,
                const QueryResult& result, uint64_t epoch = 0);

  /// The epoch-advance contract with a live engine (src/live/): applied
  /// once per committed update batch, moving the cache from `from_epoch` to
  /// `to_epoch`. Every resident entry is settled exactly one way:
  ///   * entries already at `to_epoch` (admitted by queries that observed
  ///     the new dataset) are kept untouched;
  ///   * entries at `from_epoch` are tested with `affected` — affected ones
  ///     are dropped, unaffected ones are *re-tagged* in place to
  ///     `to_epoch`, staying servable with zero recomputation;
  ///   * entries at any older epoch missed a sweep (the cache was detached)
  ///     and are dropped unconditionally.
  /// Returns the number of entries dropped. Also raises the stale-admit
  /// floor first, so in-flight queries that ran against the old dataset
  /// cannot admit behind the sweep's back.
  int64_t ApplyInvalidation(uint64_t from_epoch, uint64_t to_epoch,
                            const InvalidationPredicate& affected);

  CacheCounters Counters() const;
  void Clear();
  const CacheConfig& config() const { return config_; }

 private:
  struct Entry {
    std::string key;  ///< CanonicalFingerprint
    QueryMode mode = QueryMode::kUtk1;
    int k = 0;
    uint64_t epoch = 0;  ///< the dataset epoch the answer is valid at
    ConvexRegion region;
    QueryResult result;
    int64_t bytes = 0;
    /// CacheEntryView::floor's storage.
    Scalar floor = std::numeric_limits<Scalar>::quiet_NaN();
  };
  struct Shard {
    Mutex mu;
    /// front = most recently used
    std::list<Entry> lru UTK_GUARDED_BY(mu);
    std::unordered_map<std::string, std::list<Entry>::iterator> index
        UTK_GUARDED_BY(mu);
    int64_t bytes UTK_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const std::string& key);

  CacheConfig config_;
  std::size_t entries_per_shard_ = 0;
  int64_t bytes_per_shard_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> exact_hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> inserts_{0};
  std::atomic<int64_t> invalidation_sweeps_{0};
  std::atomic<int64_t> invalidated_{0};
  std::atomic<int64_t> stale_rejects_{0};
  /// Highest to_epoch any sweep has applied; admits below it are stale.
  std::atomic<uint64_t> latest_epoch_{0};
};

}  // namespace utk

#endif  // UTK_SERVE_RESULT_CACHE_H_
