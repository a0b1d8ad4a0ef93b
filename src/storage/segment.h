// Columnar segment files — the immutable half of the persistence tier.
//
// A segment is one self-contained, checksummed snapshot of a live catalog
// (src/live/live_engine.h): per-dimension Scalar columns mirroring the
// in-memory ColumnStore byte-for-byte, the liveness bitmap, and the
// serialized R-tree pages (index/rtree.h AppendPages), followed by a footer
// carrying per-block {offset, length, CRC32, min/max zonemap} metadata.
// Columns start 8-byte aligned. Recovery (storage/catalog.h) maps the file,
// verifies it, and materializes it into a LiveEngine via MaterializeAll,
// AliveVector and Tree.
//
// Layout (every integer little-endian via common/serial.h):
//
//   header   magic 'UTKS' | version | dim | rows | live | epoch u64 | pad
//   blocks   dim column blocks (rows Scalars each, 8-byte aligned)
//            liveness bitmap (rows bytes, 0 = tombstone)
//            R-tree pages
//   footer   payload: magic 'UTKF' | block_count |
//                       per block: offset u64, length u64, crc32,
//                                  zonemap min/max Scalar
//   trailer  crc32(payload) | payload length | end magic 'UTKE'
//
// Writers publish atomically: the bytes go to "<path>.tmp", are fsync'd,
// and rename(2) moves the file into place (then the directory is fsync'd),
// so a crash leaves either the old segment or the new one, never a hybrid.
// Readers verify everything on open — magics, version, structural bounds,
// every block CRC, bitmap/live agreement, and R-tree page sanity — and
// refuse the file otherwise: corrupted bytes are rejected, never served.
#ifndef UTK_STORAGE_SEGMENT_H_
#define UTK_STORAGE_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "index/rtree.h"

namespace utk {

// Format constants (see the layout comment above).
inline constexpr uint32_t kSegmentMagic = 0x53'4B'54'55;      // "UTKS"
inline constexpr uint32_t kSegmentFooterMagic = 0x46'4B'54'55;  // "UTKF"
inline constexpr uint32_t kSegmentEndMagic = 0x45'4B'54'55;     // "UTKE"
inline constexpr uint32_t kSegmentVersion = 1;

/// Writes `bytes` to `path` atomically: the data goes to "<path>.tmp", is
/// fsync'd, rename(2)'d into place, and the parent directory is fsync'd.
/// Shared by the segment writer and the manifest (storage/catalog.cc).
/// Returns nullopt on success, otherwise a diagnostic.
std::optional<std::string> AtomicWriteFile(const std::string& path,
                                           const std::string& bytes);

/// Writes the catalog state {data, alive, tree, epoch} as one segment file
/// at `path`, atomically (tmp + fsync + rename). `data`/`alive` are the
/// id-addressed state including tombstones (alive.size() == data.size());
/// `tree` must index exactly the alive records. Returns nullopt on success,
/// otherwise a diagnostic. Enforces the shared ingest policy: any
/// non-finite attribute (even on a tombstone) aborts the write, since a
/// NaN would poison the zonemaps.
std::optional<std::string> WriteSegment(const std::string& path,
                                        const Dataset& data,
                                        const std::vector<char>& alive,
                                        const RTree& tree, uint64_t epoch);

/// Read side: maps the file and exposes the verified blocks zero-copy.
/// Move-only; the mapping lives until destruction, and every pointer handed
/// out is valid exactly that long.
class SegmentReader {
 public:
  /// Per-column min/max over all rows (tombstones included), from the
  /// footer. {0, 0} for an empty segment.
  struct Zonemap {
    Scalar min = 0, max = 0;
  };

  /// Opens and fully verifies `path` (see file comment). nullptr with a
  /// diagnostic in `error` on any validation failure.
  static std::unique_ptr<SegmentReader> Open(const std::string& path,
                                             std::string* error = nullptr);
  ~SegmentReader();

  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  int dim() const { return dim_; }
  int32_t rows() const { return rows_; }
  int64_t live() const { return live_; }
  uint64_t epoch() const { return epoch_; }
  const std::string& path() const { return path_; }

  /// Column d as a pointer into the mapping (rows() Scalars, 8-aligned).
  const Scalar* col(int d) const { return cols_[d]; }
  Zonemap zonemap(int d) const { return zonemaps_[d]; }

  /// The liveness bitmap as the vector form LiveEngine recovery takes.
  std::vector<char> AliveVector() const;

  /// Deserializes the stored R-tree pages (verified on Open; this call
  /// cannot fail afterwards).
  RTree Tree() const;

  /// Gathers the whole catalog into AoS records — the path recovery uses.
  Dataset MaterializeAll() const;

 private:
  SegmentReader() = default;

  std::string path_;
  void* map_ = nullptr;
  size_t size_ = 0;
  int dim_ = 0;
  int32_t rows_ = 0;
  int64_t live_ = 0;
  uint64_t epoch_ = 0;
  std::vector<const Scalar*> cols_;
  const char* alive_ = nullptr;
  const char* tree_bytes_ = nullptr;
  size_t tree_len_ = 0;
  std::vector<Zonemap> zonemaps_;
};

}  // namespace utk

#endif  // UTK_STORAGE_SEGMENT_H_
