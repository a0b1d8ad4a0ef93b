// LiveEngine — the QueryEngine over a mutating catalog.
//
// The paper's algorithms assume a frozen dataset; this engine lets the
// catalog mutate. It owns an epoch-versioned dataset addressed by *stable*
// record ids: erased slots become tombstones (attributes kept, excluded
// from every index), inserts take the next id or revive a tombstone. Each
// committed update batch advances the epoch and incrementally maintains the
// R-tree (index/rtree.h Insert/Erase — no bulk rebuild) and the SoA column
// mirror (exec/column_store.h SetRow).
//
// Queries run the QueryEngine pipeline (api/query_engine.h), root span
// live.run, under one shared lock from validation through the epoch stamp:
// RSA/JAA plans through RunRSkyband over the live R-tree, every other plan
// on the shared CompactFallback with ids mapped back. Every path returns
// exactly what a from-scratch Engine over the current live records would.
//
// Serving contract: every committed epoch emits an invalidation sweep to
// each attached serve::ResultCache (ApplyInvalidation) with a conservative
// predicate — an erase affects exactly the entries whose UTK1 answer
// contains the erased id; an insert affects the entries where the new
// record ties-or-beats some answer member somewhere in the entry's region
// (an affine range test per cached id; closed form for boxes). A per-entry
// score floor (the lowest score any member reaches over the region,
// memoized in the entry) settles most entries first: when every inserted
// record's best score over the region stays below it by a margin, the
// per-id test could only keep the entry too, so it is skipped. Entries
// proven unaffected are re-tagged to the new epoch and keep serving;
// affected ones are dropped, so a warm Server over a LiveEngine always
// equals a cold one.
//
// Thread-safety: queries (Run/TopK) take a shared lock and may run
// concurrently; size()/dim() are atomics, so Validate/Plan/Explain need no
// lock; updates take the exclusive lock and commit their cache sweeps
// before releasing it. data() references are only stable while no update
// runs.
#ifndef UTK_LIVE_LIVE_ENGINE_H_
#define UTK_LIVE_LIVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "api/engine.h"
#include "common/annotations.h"
#include "api/query_engine.h"
#include "data/workload.h"
#include "exec/column_store.h"
#include "index/rtree.h"
#include "serve/result_cache.h"

namespace utk {

/// Read-only view of the complete catalog state, valid only for the duration
/// of the call it is passed to (the references alias engine internals under
/// the engine's lock). `data`/`alive` are id-addressed including tombstones;
/// `tree` indexes exactly the alive records; `epoch` is the committed batch
/// count the state corresponds to.
struct CatalogView {
  const Dataset& data;
  const std::vector<char>& alive;
  const RTree& tree;
  uint64_t epoch = 0;
};

/// Durability hook: observes every committed update batch, synchronously,
/// under the engine's exclusive lock. `ops` lists the batch's *applied*
/// mutations in application order with their assigned ids (order matters:
/// one batch may erase an id and then revive it), so replaying the stream
/// through ApplyBatch on the view's predecessor state reproduces `view`
/// exactly — this is the write-ahead-log contract src/storage/ builds on.
/// OnCommit runs before the update call returns; it may read the view but
/// must not call back into the engine (the exclusive lock is held).
class UpdateLog {
 public:
  virtual ~UpdateLog() = default;
  virtual void OnCommit(std::span<const UpdateOp> ops,
                        const CatalogView& view) = 0;
};

/// Monotonic update-side counters (a consistent snapshot via counters()).
struct LiveCounters {
  uint64_t epoch = 0;        ///< committed update batches
  int64_t live = 0;          ///< records currently alive
  int64_t inserts = 0;       ///< records inserted (including revivals)
  int64_t erases = 0;        ///< records erased
  int64_t band_rebuilds = 0; ///< always 0: no maintained band to rebuild
  int64_t pool_queries = 0;  ///< always 0: no maintained band to refine
  int64_t direct_queries = 0;   ///< RSA/JAA runs that filtered the live tree
  int64_t fallback_queries = 0; ///< answered via the compact fallback engine
};

class LiveEngine final : public QueryEngine {
 public:
  /// Takes ownership of `data` (ids 0..n-1, the repo invariant) as epoch 0.
  /// An empty dataset is a valid start — build the catalog with Insert.
  explicit LiveEngine(Dataset data);

  /// Recovery constructor (src/storage/catalog.cc): resumes a persisted
  /// catalog mid-history. `data`/`alive` are the id-addressed state
  /// including tombstones, `tree` must index exactly the alive records
  /// (deserialized from a segment, or RTree::BulkLoad(data, alive)), and
  /// `epoch` is the committed batch count the state was saved at — the
  /// engine continues from there as if it had applied those batches itself.
  LiveEngine(Dataset data, std::vector<char> alive, RTree tree,
             uint64_t epoch);

  ~LiveEngine() override;

  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  // ------------------------------------------------------------- queries
  /// The id-addressed dataset *including tombstones* (data()[i].id == i
  /// still holds; IsLive distinguishes). Algorithms only dereference ids
  /// the live indexes hand out, so tombstones are never touched.
  /// Unchecked by the thread-safety analysis: the reference is handed out
  /// lock-free by contract — stable only while no update runs (class
  /// comment); synchronized callers go through WithSnapshot.
  const Dataset& data() const override UTK_NO_THREAD_SAFETY_ANALYSIS {
    return data_;
  }
  /// The SoA mirror of data() — maintained incrementally in lockstep with
  /// the catalog (SetRow on every insert/revival; tombstones keep their
  /// last attributes, same as data()). Stable only while no update runs;
  /// same lock-free-by-contract escape hatch as data().
  const ColumnStore& cols() const UTK_NO_THREAD_SAFETY_ANALYSIS {
    return cols_;
  }
  int64_t size() const override { return live_size(); }
  int dim() const override { return dim_.load(std::memory_order_acquire); }
  std::vector<int32_t> TopK(const Vec& w, int k) const override;
  uint64_t epoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }

  // ------------------------------------------------------------- updates
  /// Inserts `rec` and commits an epoch. rec.id == -1 assigns the next id;
  /// a tombstoned id revives that slot (the reinsert path). Returns the
  /// record's id, or -1 when the id is already live, out of range, or the
  /// attribute dimensionality mismatches.
  int32_t Insert(Record rec);

  /// Erases a live record and commits an epoch. Returns false for unknown
  /// or already-dead ids (no epoch is committed then).
  bool Erase(int32_t id);

  /// Applies a whole trace as ONE committed epoch (one invalidation sweep
  /// covering every op). Returns the number of ops applied; invalid ops are
  /// skipped. An all-invalid batch commits no epoch.
  int ApplyBatch(std::span<const UpdateOp> ops);

  bool IsLive(int32_t id) const;
  int64_t live_size() const { return live_.load(std::memory_order_acquire); }

  /// The live records re-indexed 0..m-1 in ascending live-id order — what a
  /// from-scratch Engine would be built on. live_ids (optional) receives
  /// the monotonic new-id -> live-id mapping.
  Dataset CompactSnapshot(std::vector<int32_t>* live_ids = nullptr) const;

  // ------------------------------------------------------------- serving
  /// Registers `cache` for epoch invalidation sweeps: every committed
  /// update batch calls cache->ApplyInvalidation before the update returns.
  /// The cache must stay alive until DetachCache (see CacheAttachment).
  void AttachCache(ResultCache* cache);
  void DetachCache(ResultCache* cache);

  // --------------------------------------------------------- persistence
  /// Registers `log` to observe every committed batch (see UpdateLog). The
  /// log must stay alive until DetachLog. Updates committed before the
  /// attach are not replayed — attach before mutating (the storage catalog
  /// attaches its WAL right after recovery, while it holds the only
  /// reference to the engine).
  void AttachLog(UpdateLog* log);
  void DetachLog(UpdateLog* log);

  /// Runs `fn` over a consistent snapshot of the full catalog state, with
  /// updates blocked for the duration (shared lock — concurrent queries
  /// proceed). The storage tier's explicit compaction uses this to write a
  /// segment + rotate the WAL atomically with respect to commits. `fn` must
  /// not call the engine's update methods (self-deadlock on the lock).
  void WithSnapshot(const std::function<void(const CatalogView&)>& fn) const;

  LiveCounters counters() const;

 private:
  struct UpdateEvent {
    std::vector<Record> inserted;
    std::vector<int32_t> erased;
    /// Applied mutations in application order, assigned ids filled in —
    /// exactly what UpdateLog::OnCommit receives.
    std::vector<UpdateOp> ops;
  };

  /// RSA/JAA over the live tree's r-skyband, everything else on the
  /// compact fallback. Runs only inside ReadPinned (the shared lock held).
  QueryResult Execute(const QuerySpec& spec,
                      const PlanDecision& decision) const override;
  void ReadPinned(const std::function<void()>& body) const override;

  /// Un-synchronized cores of Insert/Erase; the caller holds the exclusive
  /// lock and owns the commit.
  int32_t InsertLocked(Record rec, UpdateEvent* event) UTK_REQUIRES(mu_);
  bool EraseLocked(int32_t id, UpdateEvent* event) UTK_REQUIRES(mu_);
  /// Advances the epoch and sweeps every attached cache with the
  /// conservative could-affect predicate for `event`. Exclusive lock held.
  void Commit(const UpdateEvent& event) UTK_REQUIRES(mu_);
  /// Reduced score coefficients of one inserted record (S(q)(w) = offset +
  /// coef.w over the first d-1 weights), computed once per batch.
  struct ScoreForm {
    Vec coef;
    Scalar offset = 0.0;
  };
  /// True iff `event` could change the cached answer `view` (see class
  /// comment for the exact tests); `inserted` holds event.inserted's score
  /// forms. Counts the entries the score floor cannot settle, which run
  /// the exact per-id test, in *exact_tests. Runs under Commit's exclusive
  /// lock, but reaches here through the std::function invalidation
  /// predicate — a boundary the analysis cannot see capabilities across,
  /// hence the explicit opt-out.
  bool CouldAffect(const UpdateEvent& event,
                   std::span<const ScoreForm> inserted,
                   const CacheEntryView& view, int64_t* exact_tests) const
      UTK_NO_THREAD_SAFETY_ANALYSIS;

  /// Catalog lock. Lock order: mu_ strictly before logs_mu_ and caches_mu_
  /// (Commit), before the compact fallback's lock — and, through
  /// UpdateLog::OnCommit, before the storage Catalog's cat_mu_.
  mutable SharedMutex mu_ UTK_ACQUIRED_BEFORE(logs_mu_, caches_mu_);
  Dataset data_ UTK_GUARDED_BY(mu_);
  std::vector<char> alive_ UTK_GUARDED_BY(mu_);
  RTree tree_ UTK_GUARDED_BY(mu_);
  ColumnStore cols_ UTK_GUARDED_BY(mu_);
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int64_t> live_{0};
  /// Attribute dimensionality: fixed by the first record ever stored (0
  /// while the catalog has none); tombstones keep theirs.
  std::atomic<int> dim_{0};
  std::atomic<int64_t> inserts_{0};
  std::atomic<int64_t> erases_{0};
  mutable std::atomic<int64_t> direct_queries_{0};
  mutable std::atomic<int64_t> fallback_queries_{0};

  Mutex caches_mu_;
  std::vector<ResultCache*> caches_ UTK_GUARDED_BY(caches_mu_);

  Mutex logs_mu_;
  std::vector<UpdateLog*> logs_ UTK_GUARDED_BY(logs_mu_);

  CompactFallback compact_;
};

/// RAII pairing of a Server's cache with a LiveEngine's epoch sweeps:
///   Server server(live);            // live: shared_ptr<LiveEngine>
///   CacheAttachment link(*live, server.cache());
/// Detaches on destruction, so the cache can be destroyed safely.
class CacheAttachment {
 public:
  CacheAttachment(LiveEngine& live, ResultCache& cache)
      : live_(&live), cache_(&cache) {
    live_->AttachCache(cache_);
  }
  ~CacheAttachment() { live_->DetachCache(cache_); }
  CacheAttachment(const CacheAttachment&) = delete;
  CacheAttachment& operator=(const CacheAttachment&) = delete;

 private:
  LiveEngine* live_;
  ResultCache* cache_;
};

}  // namespace utk

#endif  // UTK_LIVE_LIVE_ENGINE_H_
