#include "storage/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "common/serial.h"

namespace utk {
namespace {

constexpr size_t kHeaderBytes = 32;  // 28 bytes of fields + 4 pad, 8-aligned
constexpr size_t kTrailerBytes = 12;  // crc32 | payload length | end magic

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

void PadTo8(std::string* buf) {
  while (buf->size() % 8 != 0) AppendU8(buf, 0);
}

}  // namespace

std::optional<std::string> AtomicWriteFile(const std::string& path,
                                           const std::string& buf) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open " + tmp);
  size_t done = 0;
  while (done < buf.size()) {
    ssize_t n = ::write(fd, buf.data() + done, buf.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::string err = Errno("write " + tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return err;
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    std::string err = Errno("fsync " + tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return err;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    std::string err = Errno("rename " + tmp);
    ::unlink(tmp.c_str());
    return err;
  }
  // Persist the rename itself.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return std::nullopt;
}

std::optional<std::string> WriteSegment(const std::string& path,
                                        const Dataset& data,
                                        const std::vector<char>& alive,
                                        const RTree& tree, uint64_t epoch) {
  const int32_t n = static_cast<int32_t>(data.size());
  const int dim = data.empty() ? 0 : DataDim(data);
  if (alive.size() != data.size())
    return "alive bitmap size " + std::to_string(alive.size()) +
           " != dataset size " + std::to_string(data.size());
  int64_t live = 0;
  for (int32_t i = 0; i < n; ++i) {
    if (static_cast<int>(data[i].attrs.size()) != dim)
      return "record " + std::to_string(i) + " has " +
             std::to_string(data[i].attrs.size()) + " attrs, segment needs " +
             std::to_string(dim);
    if (auto bad = CheckFiniteAttrs(data[i].attrs))
      return "record " + std::to_string(i) + ": " + *bad;
    live += alive[i] ? 1 : 0;
  }
  if (tree.num_records() != live)
    return "R-tree indexes " + std::to_string(tree.num_records()) +
           " records, bitmap says " + std::to_string(live) + " alive";

  std::string buf;
  AppendU32(&buf, kSegmentMagic);
  AppendU32(&buf, kSegmentVersion);
  AppendU32(&buf, static_cast<uint32_t>(dim));
  AppendU32(&buf, static_cast<uint32_t>(n));
  AppendU32(&buf, static_cast<uint32_t>(live));
  AppendU64(&buf, epoch);
  AppendU32(&buf, 0);  // pad to kHeaderBytes, keeps column 0 8-aligned

  struct Block {
    uint64_t off = 0, len = 0;
    uint32_t crc = 0;
    SegmentReader::Zonemap zone;
  };
  std::vector<Block> blocks;
  auto close_block = [&](uint64_t off, SegmentReader::Zonemap zone) {
    Block b;
    b.off = off;
    b.len = buf.size() - off;
    b.crc = Crc32(buf.data() + off, b.len);
    b.zone = zone;
    blocks.push_back(b);
    PadTo8(&buf);
  };

  for (int d = 0; d < dim; ++d) {
    const uint64_t off = buf.size();
    SegmentReader::Zonemap zone;
    for (int32_t i = 0; i < n; ++i) {
      const Scalar v = data[i].attrs[d];
      if (i == 0) {
        zone.min = zone.max = v;
      } else {
        zone.min = std::min(zone.min, v);
        zone.max = std::max(zone.max, v);
      }
      AppendScalar(&buf, v);
    }
    close_block(off, zone);
  }
  {
    const uint64_t off = buf.size();
    for (int32_t i = 0; i < n; ++i) AppendU8(&buf, alive[i] ? 1 : 0);
    close_block(off, {});
  }
  {
    const uint64_t off = buf.size();
    tree.AppendPages(&buf);
    close_block(off, {});
  }

  const size_t payload_start = buf.size();
  AppendU32(&buf, kSegmentFooterMagic);
  AppendU32(&buf, static_cast<uint32_t>(blocks.size()));
  for (const Block& b : blocks) {
    AppendU64(&buf, b.off);
    AppendU64(&buf, b.len);
    AppendU32(&buf, b.crc);
    AppendScalar(&buf, b.zone.min);
    AppendScalar(&buf, b.zone.max);
  }
  const size_t payload_len = buf.size() - payload_start;
  AppendU32(&buf, Crc32(buf.data() + payload_start, payload_len));
  AppendU32(&buf, static_cast<uint32_t>(payload_len));
  AppendU32(&buf, kSegmentEndMagic);

  return AtomicWriteFile(path, buf);
}

std::unique_ptr<SegmentReader> SegmentReader::Open(const std::string& path,
                                                   std::string* error) {
  auto fail = [&](const std::string& why) -> std::unique_ptr<SegmentReader> {
    if (error != nullptr) *error = path + ": " + why;
    return nullptr;
  };

  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return fail(Errno("open"));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    std::string err = Errno("fstat");
    ::close(fd);
    return fail(err);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderBytes + kTrailerBytes + 8) {
    ::close(fd);
    return fail("file too small to be a segment");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping outlives the descriptor
  if (map == MAP_FAILED) return fail(Errno("mmap"));

  std::unique_ptr<SegmentReader> r(new SegmentReader());
  r->path_ = path;
  r->map_ = map;
  r->size_ = size;
  const char* base = static_cast<const char*>(map);

  // Header.
  size_t cur = 0;
  auto magic = ReadU32(base, size, &cur);
  auto version = ReadU32(base, size, &cur);
  auto dim = ReadU32(base, size, &cur);
  auto rows = ReadU32(base, size, &cur);
  auto live = ReadU32(base, size, &cur);
  auto epoch = ReadU64(base, size, &cur);
  if (*magic != kSegmentMagic) return fail("bad magic (not a segment file)");
  if (*version != kSegmentVersion)
    return fail("unsupported segment version " + std::to_string(*version));
  if (*dim > 1024 || (*dim == 0 && *rows != 0))
    return fail("implausible dimensionality");
  if (*rows > static_cast<uint32_t>(INT32_MAX) || *live > *rows)
    return fail("implausible row counts");

  // Trailer + footer payload.
  size_t tcur = size - kTrailerBytes;
  auto footer_crc = ReadU32(base, size, &tcur);
  auto payload_len = ReadU32(base, size, &tcur);
  auto end_magic = ReadU32(base, size, &tcur);
  if (*end_magic != kSegmentEndMagic) return fail("bad end magic (truncated?)");
  if (*payload_len > size - kTrailerBytes - kHeaderBytes)
    return fail("footer length out of range");
  const size_t payload_start = size - kTrailerBytes - *payload_len;
  if (Crc32(base + payload_start, *payload_len) != *footer_crc)
    return fail("footer checksum mismatch");

  size_t fcur = payload_start;
  auto fmagic = ReadU32(base, size, &fcur);
  auto block_count = ReadU32(base, size, &fcur);
  if (!fmagic || *fmagic != kSegmentFooterMagic)
    return fail("bad footer magic");
  if (!block_count || *block_count != *dim + 2)
    return fail("footer block count disagrees with header dim");

  struct Block {
    uint64_t off = 0, len = 0;
    uint32_t crc = 0;
    Zonemap zone;
  };
  std::vector<Block> blocks(*block_count);
  for (Block& b : blocks) {
    auto off = ReadU64(base, size, &fcur);
    auto len = ReadU64(base, size, &fcur);
    auto crc = ReadU32(base, size, &fcur);
    auto zmin = ReadScalar(base, size, &fcur);
    auto zmax = ReadScalar(base, size, &fcur);
    if (!off || !len || !crc || !zmin || !zmax)
      return fail("footer truncated");
    if (*off < kHeaderBytes || *off + *len < *off ||
        *off + *len > payload_start)
      return fail("block extent out of range");
    b.off = *off;
    b.len = *len;
    b.crc = *crc;
    b.zone = {*zmin, *zmax};
  }
  if (fcur != payload_start + *payload_len)
    return fail("footer payload has trailing bytes");

  // Every block checksum verifies before a single byte is served.
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (Crc32(base + blocks[i].off, blocks[i].len) != blocks[i].crc)
      return fail("block " + std::to_string(i) + " checksum mismatch");
  }

  r->dim_ = static_cast<int>(*dim);
  r->rows_ = static_cast<int32_t>(*rows);
  r->live_ = static_cast<int64_t>(*live);
  r->epoch_ = *epoch;

  const uint64_t col_bytes = static_cast<uint64_t>(*rows) * sizeof(Scalar);
  for (int d = 0; d < r->dim_; ++d) {
    const Block& b = blocks[d];
    if (b.len != col_bytes) return fail("column block has wrong length");
    if (b.off % alignof(Scalar) != 0) return fail("column block misaligned");
    r->cols_.push_back(reinterpret_cast<const Scalar*>(base + b.off));
    r->zonemaps_.push_back(b.zone);
  }
  const Block& alive_block = blocks[r->dim_];
  if (alive_block.len != *rows) return fail("liveness bitmap has wrong length");
  r->alive_ = base + alive_block.off;
  int64_t counted = 0;
  for (int32_t i = 0; i < r->rows_; ++i) {
    const char a = r->alive_[i];
    if (a != 0 && a != 1) return fail("liveness bitmap holds a non-0/1 byte");
    counted += a;
  }
  if (counted != r->live_)
    return fail("liveness bitmap population disagrees with header");

  const Block& tree_block = blocks[r->dim_ + 1];
  r->tree_bytes_ = base + tree_block.off;
  r->tree_len_ = tree_block.len;
  auto tree = RTree::FromPages(r->tree_bytes_, r->tree_len_);
  if (!tree.has_value()) return fail("R-tree pages are malformed");
  if (tree->num_records() != r->live_)
    return fail("R-tree record count disagrees with liveness bitmap");

  // The attribute columns obey the ingest policy; a violation here means
  // the file was not produced by WriteSegment (or was corrupted in a way
  // CRCs cannot see, e.g. a buggy writer).
  for (int d = 0; d < r->dim_; ++d) {
    for (int32_t i = 0; i < r->rows_; ++i) {
      if (!IsFiniteAttr(r->cols_[d][i]))
        return fail("column " + std::to_string(d) +
                    " holds a non-finite value");
    }
  }
  return r;
}

SegmentReader::~SegmentReader() {
  if (map_ != nullptr) ::munmap(map_, size_);
}

std::vector<char> SegmentReader::AliveVector() const {
  return std::vector<char>(alive_, alive_ + rows_);
}

RTree SegmentReader::Tree() const {
  auto tree = RTree::FromPages(tree_bytes_, tree_len_);
  return std::move(*tree);  // verified on Open
}

Dataset SegmentReader::MaterializeAll() const {
  Dataset data;
  data.reserve(rows_);
  for (int32_t i = 0; i < rows_; ++i) {
    Record rec;
    rec.id = i;
    rec.attrs.resize(dim_);
    for (int d = 0; d < dim_; ++d) rec.attrs[d] = cols_[d][i];
    data.push_back(std::move(rec));
  }
  return data;
}

}  // namespace utk
