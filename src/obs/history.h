// Persistent query-stats history: an append-only, CRC-framed file with one
// fingerprinted row per query.
//
// Every row records the query's *features* (mode, k, catalog size,
// preference dimensionality, region width), the planner's decision (the
// algorithm that ran, the one planned, and the reason), the full QueryStats
// CSV row, and a top-span rollup — everything `utk_cli history` needs to
// answer "what ran here and how fast".
//
// Framing reuses the WAL conventions (storage/wal.h, common/serial.h):
//
//   header  magic 'UTKH' | version u32
//   frame   payload_len u32 | crc32(payload) | payload
//   payload u8 type (1 = query record), then the record fields
//           little-endian via common/serial.h
//
// Crash safety follows the WAL's no-resync-past-damage rule: ReadHistory
// walks frames until the first truncated or checksum-failing frame and
// reports the clean prefix; HistoryWriter::Open truncates the file to that
// prefix before appending, so a torn tail never precedes fresh frames.
// Growth is bounded: when the file would exceed `max_bytes`, the writer
// rotates it to `<path>.1` (replacing any previous rotation) and starts a
// fresh file — history is telemetry, dropping the oldest rows is correct.
//
// This layer is deliberately api-free (it stores the stats row as the CSV
// string QueryStats::CsvRow produces and enum values as raw bytes), so
// utk_obs keeps sitting directly above utk_common in the library DAG.
#ifndef UTK_OBS_HISTORY_H_
#define UTK_OBS_HISTORY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.h"

namespace utk {
namespace obs {

inline constexpr uint32_t kHistoryMagic = 0x48'4B'54'55;  // "UTKH"
inline constexpr uint32_t kHistoryVersion = 1;
/// Default rotation cap (16 MiB ≈ 10^5 rows) — telemetry, not a ledger.
inline constexpr uint64_t kHistoryDefaultMaxBytes = uint64_t{16} << 20;

/// One query's history row. Enum-valued fields carry the raw enum byte
/// (api/query.h Algorithm, api/planner.h PlanReason) so this header never
/// depends on the api layer.
struct HistoryRecord {
  int64_t ts_us = 0;        ///< obs::NowMicros() at append
  std::string fingerprint;  ///< SpecFingerprint(spec)
  uint8_t mode = 0;         ///< QueryMode enum value
  int32_t k = 0;
  int64_t n = 0;            ///< catalog size the query planned against
  int32_t pref_dim = 0;
  double region_width = 0;  ///< RegionWidth(spec.region) planner feature
  uint8_t ran_algorithm = 0;      ///< Algorithm that executed
  uint8_t planned_algorithm = 0;  ///< Algorithm the planner chose
  uint8_t plan_reason = 0;        ///< PlanReason enum value
  std::string stats_csv;          ///< QueryStats::CsvRow() of the result
  /// Per-span-name duration rollup (name, total ms), largest first; empty
  /// when tracing was off.
  std::vector<std::pair<std::string, double>> top_spans;
};

/// Append-side handle. Thread-safe: Append serializes under a mutex (one
/// writer object per file; opening the same path twice is a caller bug).
class HistoryWriter {
 public:
  /// Opens `path` for appending, creating it (with a header) when absent,
  /// validating magic/version and truncating any torn tail otherwise.
  /// Returns nullptr with a diagnostic when the file exists but cannot be
  /// a history file (bad magic/version) or on I/O failure.
  static std::unique_ptr<HistoryWriter> Open(
      const std::string& path, uint64_t max_bytes = kHistoryDefaultMaxBytes,
      std::string* error = nullptr);

  ~HistoryWriter();
  HistoryWriter(const HistoryWriter&) = delete;
  HistoryWriter& operator=(const HistoryWriter&) = delete;

  /// Appends one frame; rotates first when the frame would push the file
  /// past max_bytes. I/O failures latch (ok() goes false) rather than
  /// throwing through a query path.
  bool Append(const HistoryRecord& rec, std::string* error = nullptr);

  /// Both take mu_: ok_/last_error_ mutate under the lock in Append, so an
  /// unlocked read (the pre-annotation code) raced it — last_error returns
  /// by value for the same reason (a reference would dangle into guarded
  /// state).
  bool ok() const;
  std::string last_error() const;
  uint64_t bytes() const;
  int64_t records() const;     ///< rows appended through this writer
  int64_t rotations() const;   ///< times the file rolled to <path>.1
  const std::string& path() const { return path_; }

 private:
  HistoryWriter() = default;
  bool WriteFrameLocked(const std::string& payload, std::string* error)
      UTK_REQUIRES(mu_);
  bool RotateLocked(std::string* error) UTK_REQUIRES(mu_);

  std::string path_;
  uint64_t max_bytes_ = kHistoryDefaultMaxBytes;
  mutable Mutex mu_;
  int fd_ UTK_GUARDED_BY(mu_) = -1;
  uint64_t bytes_ UTK_GUARDED_BY(mu_) = 0;
  int64_t records_ UTK_GUARDED_BY(mu_) = 0;
  int64_t rotations_ UTK_GUARDED_BY(mu_) = 0;
  bool ok_ UTK_GUARDED_BY(mu_) = true;
  std::string last_error_ UTK_GUARDED_BY(mu_);
};

/// Everything ReadHistory recovered from a file.
struct HistoryReplay {
  std::vector<HistoryRecord> records;  ///< clean-prefix rows, append order
  uint64_t valid_bytes = 0;   ///< header + every intact frame
  uint64_t dropped_bytes = 0; ///< torn/corrupt suffix discarded
};

/// Parses `path`. Returns nullopt (with a diagnostic) only when the file
/// cannot be a history file at all — unopenable, short header, bad magic
/// or version. Tail damage is not an error: the clean prefix comes back
/// and the tail is reported via dropped_bytes.
std::optional<HistoryReplay> ReadHistory(const std::string& path,
                                         std::string* error = nullptr);

/// Process-wide history sink. Engines append one row per top-level query
/// when a writer is installed (api/planner.h RecordHistory, called with the
/// query's obs::QueryScope); nullptr (the default) disables recording.
void SetQueryHistory(std::shared_ptr<HistoryWriter> writer);
std::shared_ptr<HistoryWriter> QueryHistory();

}  // namespace obs
}  // namespace utk

#endif  // UTK_OBS_HISTORY_H_
