#include "storage/catalog.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/crc32.h"
#include "common/serial.h"
#include "obs/trace.h"
#include "storage/segment.h"

namespace utk {
namespace {

constexpr const char* kManifestName = "MANIFEST";

std::string FileName(const char* stem, uint64_t seqno, const char* ext) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s-%06llu.%s", stem,
                static_cast<unsigned long long>(seqno), ext);
  return buf;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

std::optional<std::string> WriteManifest(const std::string& dir,
                                         uint64_t seqno,
                                         const std::string& segment_file,
                                         const std::string& wal_file) {
  std::string buf;
  AppendU32(&buf, kManifestMagic);
  AppendU32(&buf, kManifestVersion);
  AppendU64(&buf, seqno);
  AppendU32(&buf, static_cast<uint32_t>(segment_file.size()));
  buf += segment_file;
  AppendU32(&buf, static_cast<uint32_t>(wal_file.size()));
  buf += wal_file;
  AppendU32(&buf, Crc32(buf.data(), buf.size()));
  return AtomicWriteFile(dir + "/" + kManifestName, buf);
}

struct Manifest {
  uint64_t seqno = 0;
  std::string segment_file, wal_file;
};

std::optional<Manifest> ReadManifest(const std::string& dir,
                                     std::string* error) {
  const std::string path = dir + "/" + kManifestName;
  auto fail = [&](const std::string& why) -> std::optional<Manifest> {
    if (error != nullptr) *error = path + ": " + why;
    return std::nullopt;
  };
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) return fail("cannot open");
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string buf = ss.str();
  if (buf.size() < 4) return fail("truncated");
  const char* base = buf.data();
  const size_t body = buf.size() - 4;
  size_t ccur = body;
  auto crc = ReadU32(base, buf.size(), &ccur);
  if (Crc32(base, body) != *crc) return fail("checksum mismatch");
  size_t cur = 0;
  auto magic = ReadU32(base, body, &cur);
  auto version = ReadU32(base, body, &cur);
  auto seqno = ReadU64(base, body, &cur);
  auto seg_len = ReadU32(base, body, &cur);
  if (!magic || *magic != kManifestMagic)
    return fail("bad magic (not a manifest)");
  if (!version || *version != kManifestVersion)
    return fail("unsupported manifest version");
  if (!seqno || !seg_len || cur + *seg_len > body) return fail("truncated");
  Manifest m;
  m.seqno = *seqno;
  m.segment_file.assign(base + cur, *seg_len);
  cur += *seg_len;
  auto wal_len = ReadU32(base, body, &cur);
  if (!wal_len || cur + *wal_len > body) return fail("truncated");
  m.wal_file.assign(base + cur, *wal_len);
  cur += *wal_len;
  if (cur != body) return fail("trailing bytes");
  // Names are path components, never paths: reject anything that could
  // escape the catalog directory.
  for (const std::string& name : {m.segment_file, m.wal_file}) {
    if (name.empty() || name.find('/') != std::string::npos ||
        name == "." || name == "..")
      return fail("implausible file name in manifest");
  }
  return m;
}

}  // namespace

std::unique_ptr<Catalog> Catalog::Create(const std::string& dir, Dataset data,
                                         const CatalogOptions& opt,
                                         std::string* error) {
  auto fail = [&](const std::string& why) -> std::unique_ptr<Catalog> {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
    return fail("mkdir " + dir + ": " + std::strerror(errno));
  struct stat st;
  if (::stat((dir + "/" + kManifestName).c_str(), &st) == 0)
    return fail(dir + " already holds a catalog; use Catalog::Open");

  std::unique_ptr<Catalog> cat(new Catalog());
  cat->dir_ = dir;
  cat->opt_ = opt;
  cat->engine_ = std::make_shared<LiveEngine>(std::move(data));
  {
    MutexLock lock(cat->cat_mu_);
    cat->seqno_ = 1;
    cat->segment_file_ = FileName("seg", 1, "seg");
    cat->wal_file_ = FileName("wal", 1, "wal");
  }

  std::string why;
  bool ok = true;
  cat->engine_->WithSnapshot([&](const CatalogView& view) {
    // Engine (shared) lock held via WithSnapshot, then cat_mu_ — the
    // documented order.
    MutexLock lock(cat->cat_mu_);
    if (auto err = WriteSegment(dir + "/" + cat->segment_file_, view.data,
                                view.alive, view.tree, view.epoch)) {
      why = *err;
      ok = false;
      return;
    }
    cat->wal_ = WalWriter::Create(dir + "/" + cat->wal_file_, view.epoch,
                                  opt.fsync, &why);
    if (cat->wal_ == nullptr) {
      ok = false;
      return;
    }
    if (auto err = WriteManifest(dir, cat->seqno_, cat->segment_file_,
                                 cat->wal_file_)) {
      why = *err;
      ok = false;
    }
  });
  if (!ok) return fail(why);
  cat->engine_->AttachLog(cat.get());
  return cat;
}

std::unique_ptr<Catalog> Catalog::Open(const std::string& dir,
                                       const CatalogOptions& opt,
                                       std::string* error) {
  UTK_SPAN("catalog.open");
  auto fail = [&](const std::string& why) -> std::unique_ptr<Catalog> {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  std::string why;
  auto manifest = ReadManifest(dir, &why);
  if (!manifest.has_value()) return fail(why);

  auto seg = SegmentReader::Open(dir + "/" + manifest->segment_file, &why);
  if (seg == nullptr) return fail(why);

  const std::string wal_path = dir + "/" + manifest->wal_file;
  auto replay = ReadWal(wal_path, &why);
  if (!replay.has_value()) return fail(why);
  if (replay->start_epoch != seg->epoch())
    return fail(wal_path + ": starts at epoch " +
                std::to_string(replay->start_epoch) +
                ", segment was saved at epoch " +
                std::to_string(seg->epoch()) +
                " — WAL does not extend this segment");

  std::unique_ptr<Catalog> cat(new Catalog());
  cat->dir_ = dir;
  cat->opt_ = opt;
  {
    MutexLock lock(cat->cat_mu_);
    cat->seqno_ = manifest->seqno;
    cat->segment_file_ = manifest->segment_file;
    cat->wal_file_ = manifest->wal_file;
    cat->tail_dropped_bytes_ = replay->dropped_bytes;
  }

  cat->engine_ = std::make_shared<LiveEngine>(
      seg->MaterializeAll(), seg->AliveVector(), seg->Tree(), seg->epoch());

  // Replay: each committed batch goes back through the exact ApplyBatch
  // path that produced it. Any skipped op or epoch drift means the WAL and
  // segment disagree — refuse rather than serve a diverged catalog.
  // Counters accumulate locally: ApplyBatch takes the engine lock, which
  // must never be acquired while cat_mu_ is held (lock order).
  int64_t replayed_batches = 0, replayed_ops = 0;
  {
    UTK_SPAN_VAL("catalog.replay",
                 static_cast<int64_t>(replay->batches.size()));
    for (const std::vector<UpdateOp>& batch : replay->batches) {
      const int applied = cat->engine_->ApplyBatch(batch);
      if (applied != static_cast<int>(batch.size()))
        return fail(wal_path + ": replay diverged (batch applied " +
                    std::to_string(applied) + " of " +
                    std::to_string(batch.size()) + " ops)");
      replayed_ops += applied;
      ++replayed_batches;
    }
  }
  if (cat->engine_->epoch() != replay->last_epoch)
    return fail(wal_path + ": replay ended at epoch " +
                std::to_string(cat->engine_->epoch()) + ", WAL recorded " +
                std::to_string(replay->last_epoch));

  auto wal = WalWriter::OpenForAppend(wal_path, replay->valid_bytes,
                                      opt.fsync, &why);
  if (wal == nullptr) return fail(why);
  {
    MutexLock lock(cat->cat_mu_);
    cat->replayed_batches_ = replayed_batches;
    cat->replayed_ops_ = replayed_ops;
    cat->wal_ = std::move(wal);
  }
  cat->engine_->AttachLog(cat.get());
  return cat;
}

Catalog::~Catalog() {
  if (engine_ != nullptr) engine_->DetachLog(this);
}

void Catalog::OnCommit(std::span<const UpdateOp> ops,
                       const CatalogView& view) {
  MutexLock lock(cat_mu_);
  std::string why;
  if (!wal_->Append(ops, view.epoch, &why)) {
    if (!io_error_.has_value()) io_error_ = why;
    return;
  }
  if (opt_.compact_wal_bytes > 0 && wal_->bytes() > opt_.compact_wal_bytes) {
    // The engine's exclusive lock is held (we are inside its commit), so
    // the segment snapshot, WAL rotation, and manifest swap see a frozen
    // catalog. CompactFromView expects cat_mu_ held — it is.
    if (!CompactFromView(view, &why) && !io_error_.has_value())
      io_error_ = why;
  }
}

bool Catalog::CompactFromView(const CatalogView& view, std::string* error) {
  UTK_SPAN_VAL("catalog.compact", static_cast<int64_t>(view.data.size()));
  const uint64_t next = seqno_ + 1;
  const std::string seg_name = FileName("seg", next, "seg");
  const std::string new_wal_name = FileName("wal", next, "wal");
  if (auto err = WriteSegment(dir_ + "/" + seg_name, view.data, view.alive,
                              view.tree, view.epoch)) {
    if (error != nullptr) *error = *err;
    return false;
  }
  std::string why;
  auto new_wal =
      WalWriter::Create(dir_ + "/" + new_wal_name, view.epoch, opt_.fsync,
                        &why);
  if (new_wal == nullptr) {
    if (error != nullptr) *error = why;
    ::unlink((dir_ + "/" + seg_name).c_str());
    return false;
  }
  // Publish: only the manifest swap makes the new pair current. A crash
  // before this line leaves the old pair authoritative and two orphans.
  if (auto err = WriteManifest(dir_, next, seg_name, new_wal_name)) {
    if (error != nullptr) *error = *err;
    ::unlink((dir_ + "/" + seg_name).c_str());
    ::unlink((dir_ + "/" + new_wal_name).c_str());
    return false;
  }
  // Retire the superseded pair (best-effort; orphans are harmless).
  ::unlink((dir_ + "/" + segment_file_).c_str());
  ::unlink((dir_ + "/" + wal_file_).c_str());
  seqno_ = next;
  segment_file_ = seg_name;
  wal_file_ = new_wal_name;
  wal_ = std::move(new_wal);
  ++compactions_;
  return true;
}

bool Catalog::Compact(std::string* error) {
  bool ok = true;
  engine_->WithSnapshot([&](const CatalogView& view) {
    MutexLock lock(cat_mu_);
    ok = CompactFromView(view, error);
  });
  return ok;
}

std::optional<std::string> Catalog::io_error() const {
  MutexLock lock(cat_mu_);
  return io_error_;
}

CatalogStats Catalog::stats() const {
  CatalogStats s;
  engine_->WithSnapshot([&](const CatalogView& view) {
    s.epoch = view.epoch;
    s.rows = static_cast<int64_t>(view.data.size());
    for (char a : view.alive) s.live += a ? 1 : 0;
    MutexLock lock(cat_mu_);
    s.seqno = seqno_;
    s.segment_file = segment_file_;
    s.wal_file = wal_file_;
    s.segment_bytes = FileBytes(dir_ + "/" + segment_file_);
    s.wal_bytes = wal_->bytes();
    s.wal_batches = wal_->batches();
    s.replayed_batches = replayed_batches_;
    s.replayed_ops = replayed_ops_;
    s.tail_dropped_bytes = tail_dropped_bytes_;
    s.compactions = compactions_;
  });
  return s;
}

}  // namespace utk
