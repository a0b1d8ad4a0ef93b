// Catalog — the durable LiveEngine: a directory of {segment, WAL, MANIFEST}
// that survives restarts and crashes.
//
// Invariant: the manifest names exactly one segment (the catalog state at
// some epoch E, storage/segment.h) and one WAL (every committed batch after
// E, storage/wal.h). Catalog::Open(dir) = open segment + replay WAL =
// bit-exact reproduction of the engine that was running before — same
// stable ids, same tombstones, same epoch — because the WAL records applied
// ops in application order with their assigned ids, and replay feeds them
// back through the same ApplyBatch path that produced them.
//
// Writes: the catalog registers itself as the engine's UpdateLog, so every
// committed batch lands in the WAL (fsync per CatalogOptions::fsync)
// before the commit returns. When the WAL outgrows
// CatalogOptions::compact_wal_bytes, the commit hook folds it into a fresh
// segment right there — the engine's exclusive lock is already held, so
// the {segment, WAL, manifest} swap is atomic with respect to updates.
// Explicit Compact() does the same under WithSnapshot.
//
// Crash recovery protocol, in order:
//   1. Segment and manifest writes are atomic (tmp + fsync + rename +
//      dir fsync) — a crash leaves the old file or the new one.
//   2. Compaction publishes the new segment and WAL *before* swapping the
//      manifest; a crash in between leaves the old manifest naming the old
//      (still valid) pair, plus harmless orphan files.
//   3. WAL replay applies only complete committed batches and truncates
//      the torn tail, so a crash mid-append costs at most the batch that
//      never committed.
#ifndef UTK_STORAGE_CATALOG_H_
#define UTK_STORAGE_CATALOG_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "common/annotations.h"
#include "live/live_engine.h"
#include "storage/wal.h"

namespace utk {

inline constexpr uint32_t kManifestMagic = 0x4D'4B'54'55;  // "UTKM"
inline constexpr uint32_t kManifestVersion = 1;

struct CatalogOptions {
  /// WAL durability knob (see FsyncPolicy).
  FsyncPolicy fsync = FsyncPolicy::kCommit;
  /// Fold the WAL into a fresh segment once it exceeds this many bytes
  /// (checked after each committed batch). 0 disables auto-compaction.
  uint64_t compact_wal_bytes = 4ull << 20;
};

/// A consistent snapshot of the catalog's persistence state.
struct CatalogStats {
  uint64_t epoch = 0;          ///< engine epoch
  uint64_t seqno = 0;          ///< manifest generation (bumps per compaction)
  int64_t rows = 0;            ///< catalog rows including tombstones
  int64_t live = 0;            ///< alive records
  std::string segment_file;    ///< manifest's segment, relative to dir
  std::string wal_file;        ///< manifest's WAL, relative to dir
  uint64_t segment_bytes = 0;
  uint64_t wal_bytes = 0;
  int64_t wal_batches = 0;     ///< batches appended since the last segment
  int64_t replayed_batches = 0;  ///< WAL batches replayed by Open
  int64_t replayed_ops = 0;      ///< ops inside those batches
  uint64_t tail_dropped_bytes = 0;  ///< torn WAL tail truncated by Open
  int64_t compactions = 0;     ///< segments folded by this process
};

class Catalog final : public UpdateLog {
 public:
  /// Creates a new catalog at `dir` (made if absent; must not already hold
  /// a manifest) with `data` as epoch 0, and returns it ready for updates
  /// and queries. nullptr with a diagnostic on failure.
  static std::unique_ptr<Catalog> Create(const std::string& dir, Dataset data,
                                         const CatalogOptions& opt = {},
                                         std::string* error = nullptr);

  /// Reopens the catalog at `dir`: verifies the manifest and segment,
  /// replays the WAL (truncating any torn tail), and resumes logging.
  /// Rejects — never silently repairs — a corrupted segment, a WAL that
  /// does not extend the segment, or a replay that diverges. nullptr with
  /// a diagnostic on failure.
  static std::unique_ptr<Catalog> Open(const std::string& dir,
                                       const CatalogOptions& opt = {},
                                       std::string* error = nullptr);

  ~Catalog() override;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// The durable engine. Queries and updates go straight to it; every
  /// committed batch is WAL-logged before the update call returns.
  LiveEngine& live() { return *engine_; }
  const LiveEngine& live() const { return *engine_; }
  std::shared_ptr<LiveEngine> engine() { return engine_; }

  /// Folds the current state into a fresh segment and an empty WAL now.
  bool Compact(std::string* error = nullptr);

  /// First WAL/compaction I/O failure, if any (the engine keeps serving
  /// in memory; durability of batches after the failure is not guaranteed).
  std::optional<std::string> io_error() const;

  CatalogStats stats() const;
  const std::string& dir() const { return dir_; }

  /// UpdateLog hook (internal — the engine calls this on every commit).
  void OnCommit(std::span<const UpdateOp> ops,
                const CatalogView& view) override;

 private:
  Catalog() = default;
  /// Writes segment seqno+1 + fresh WAL from `view`, swaps the manifest,
  /// retires the old pair. Caller holds the engine lock and cat_mu_.
  bool CompactFromView(const CatalogView& view, std::string* error)
      UTK_REQUIRES(cat_mu_);

  std::string dir_;
  CatalogOptions opt_;
  std::shared_ptr<LiveEngine> engine_;

  /// Guards everything below. Lock order: engine lock (via commit hook or
  /// WithSnapshot) strictly before cat_mu_ — never acquire an engine lock
  /// while holding cat_mu_ (the annotations machine-check the cat_mu_ side;
  /// the cross-class half lives in the fixture + DESIGN.md §15).
  mutable Mutex cat_mu_;
  std::unique_ptr<WalWriter> wal_ UTK_GUARDED_BY(cat_mu_);
  uint64_t seqno_ UTK_GUARDED_BY(cat_mu_) = 0;
  std::string segment_file_ UTK_GUARDED_BY(cat_mu_);
  std::string wal_file_ UTK_GUARDED_BY(cat_mu_);
  int64_t replayed_batches_ UTK_GUARDED_BY(cat_mu_) = 0;
  int64_t replayed_ops_ UTK_GUARDED_BY(cat_mu_) = 0;
  uint64_t tail_dropped_bytes_ UTK_GUARDED_BY(cat_mu_) = 0;
  int64_t compactions_ UTK_GUARDED_BY(cat_mu_) = 0;
  std::optional<std::string> io_error_ UTK_GUARDED_BY(cat_mu_);
};

}  // namespace utk

#endif  // UTK_STORAGE_CATALOG_H_
