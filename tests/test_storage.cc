// The persistence tier (src/storage/): segment round-trips through mmap
// with bitwise-equal columns, every corruption mode is rejected on open,
// WAL append/replay round-trips committed batches and recovers cleanly
// from torn tails and bit damage, the manifest-driven catalog reopens to
// the exact engine state, and the mapped engine answers queries without
// materializing the catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/serial.h"
#include "data/generator.h"
#include "data/workload.h"
#include "exec/column_store.h"
#include "storage/catalog.h"
#include "storage/segment.h"
#include "storage/wal.h"

namespace utk {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "utk_storage_" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

QuerySpec MakeSpec(QueryMode mode, Algorithm algo, int k) {
  QuerySpec spec;
  spec.mode = mode;
  spec.algorithm = algo;
  spec.k = k;
  spec.region = ConvexRegion::FromBox({0.2, 0.25}, {0.38, 0.42});
  return spec;
}

/// A catalog state with tombstones: n records, every 7th erased.
struct SavedState {
  Dataset data;
  std::vector<char> alive;
  RTree tree;
};

SavedState MakeState(int n, int dim, uint64_t seed) {
  SavedState s;
  s.data = Generate(Distribution::kIndependent, n, dim, seed);
  s.alive.assign(s.data.size(), 1);
  for (size_t i = 0; i < s.data.size(); i += 7) s.alive[i] = 0;
  s.tree = RTree::BulkLoad(s.data, s.alive);
  return s;
}

// ----------------------------------------------------------------- crc32

TEST(Crc32, MatchesKnownVectorsAndChains) {
  // The classic IEEE CRC-32 check value.
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Chaining over a split buffer equals one pass over the whole.
  const std::string buf = "the quick brown fox jumps over the lazy dog";
  for (size_t split : {size_t{0}, size_t{1}, size_t{17}, buf.size()}) {
    const uint32_t head = Crc32(buf.data(), split);
    EXPECT_EQ(Crc32(buf.data() + split, buf.size() - split, head),
              Crc32(buf.data(), buf.size()));
  }
  // Sensitivity: one flipped bit changes the sum.
  std::string flipped = buf;
  flipped[7] ^= 0x20;
  EXPECT_NE(Crc32(flipped.data(), flipped.size()),
            Crc32(buf.data(), buf.size()));
}

// --------------------------------------------------------------- segment

TEST(Segment, RoundTripsBitwiseEqualColumns) {
  SavedState s = MakeState(300, 3, 11);
  const std::string path = TempPath("roundtrip.seg");
  ASSERT_EQ(WriteSegment(path, s.data, s.alive, s.tree, 42), std::nullopt);

  std::string error;
  auto seg = SegmentReader::Open(path, &error);
  ASSERT_NE(seg, nullptr) << error;
  EXPECT_EQ(seg->dim(), 3);
  EXPECT_EQ(seg->rows(), 300);
  EXPECT_EQ(seg->epoch(), 42u);
  EXPECT_EQ(seg->live(), s.tree.num_records());

  // The mapped columns equal the in-memory SoA mirror bit for bit.
  ColumnStore owned(s.data);
  ASSERT_EQ(seg->rows(), owned.size());
  ASSERT_EQ(seg->dim(), owned.dim());
  for (int d = 0; d < owned.dim(); ++d) {
    EXPECT_EQ(std::memcmp(seg->col(d), owned.col(d),
                          sizeof(Scalar) * owned.size()),
              0)
        << "column " << d;
    // Zonemaps hold the exact column min/max.
    const Scalar* col = owned.col(d);
    const auto [mn, mx] = std::minmax_element(col, col + owned.size());
    EXPECT_EQ(seg->zonemap(d).min, *mn);
    EXPECT_EQ(seg->zonemap(d).max, *mx);
  }
  EXPECT_EQ(seg->AliveVector(), s.alive);

  // The deserialized tree is the same index: same shape counters and the
  // same branch-and-bound answers.
  RTree tree = seg->Tree();
  EXPECT_EQ(tree.num_records(), s.tree.num_records());
  EXPECT_EQ(tree.num_nodes(), s.tree.num_nodes());
  EXPECT_EQ(tree.height(), s.tree.height());
  std::string why;
  EXPECT_TRUE(tree.CheckInvariants(s.data, &why)) << why;

  // Full materialization reproduces the dataset record for record.
  Dataset back = seg->MaterializeAll();
  ASSERT_EQ(back.size(), s.data.size());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].id, s.data[i].id);
    EXPECT_EQ(back[i].attrs, s.data[i].attrs);
  }
  std::remove(path.c_str());
}

TEST(Segment, EmptyCatalogRoundTrips) {
  const std::string path = TempPath("empty.seg");
  ASSERT_EQ(WriteSegment(path, {}, {}, RTree(), 0), std::nullopt);
  std::string error;
  auto seg = SegmentReader::Open(path, &error);
  ASSERT_NE(seg, nullptr) << error;
  EXPECT_EQ(seg->rows(), 0);
  EXPECT_EQ(seg->dim(), 0);
  EXPECT_EQ(seg->live(), 0);
  EXPECT_TRUE(seg->Tree().empty());
  std::remove(path.c_str());
}

TEST(Segment, WriterRejectsNonFiniteAttributes) {
  SavedState s = MakeState(20, 3, 5);
  s.data[3].attrs[1] = std::numeric_limits<Scalar>::quiet_NaN();
  // Rebuild the tree over the poisoned data so only the ingest policy can
  // object.
  s.tree = RTree::BulkLoad(s.data, s.alive);
  auto err = WriteSegment(TempPath("nan.seg"), s.data, s.alive, s.tree, 1);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("record 3"), std::string::npos) << *err;
  EXPECT_NE(err->find("not finite"), std::string::npos) << *err;
}

TEST(Segment, OpenRejectsEveryCorruptionMode) {
  SavedState s = MakeState(120, 3, 3);
  const std::string path = TempPath("corrupt.seg");
  ASSERT_EQ(WriteSegment(path, s.data, s.alive, s.tree, 7), std::nullopt);
  const std::string good = Slurp(path);
  ASSERT_FALSE(good.empty());

  auto expect_rejected = [&](const std::string& bytes, const char* what) {
    const std::string bad_path = TempPath("corrupt_case.seg");
    Spit(bad_path, bytes);
    std::string error;
    auto seg = SegmentReader::Open(bad_path, &error);
    EXPECT_EQ(seg, nullptr) << what << ": opened despite corruption";
    EXPECT_FALSE(error.empty()) << what;
    std::remove(bad_path.c_str());
  };

  {  // bad magic
    std::string bad = good;
    bad[0] ^= 0xFF;
    expect_rejected(bad, "bad magic");
  }
  {  // unsupported version
    std::string bad = good;
    bad[4] = 99;
    expect_rejected(bad, "bad version");
  }
  {  // truncated footer / trailer
    expect_rejected(good.substr(0, good.size() - 1), "truncated by 1");
    expect_rejected(good.substr(0, good.size() - 13), "truncated trailer");
    expect_rejected(good.substr(0, good.size() / 2), "halved file");
    expect_rejected(good.substr(0, 20), "header only");
  }
  {  // one flipped bit inside a column block
    std::string bad = good;
    bad[40] ^= 0x01;
    expect_rejected(bad, "column bit flip");
  }
  {  // one flipped bit inside the footer payload
    std::string bad = good;
    bad[bad.size() - 20] ^= 0x01;
    expect_rejected(bad, "footer bit flip");
  }
  {  // liveness bitmap byte outside {0, 1} with *fixed-up* checksums:
     // structural validation has to catch what CRCs cannot
    std::string bad = good;
    auto put_u32 = [&](size_t off, uint32_t v) {
      for (int b = 0; b < 4; ++b)
        bad[off + b] = static_cast<char>((v >> (8 * b)) & 0xFF);
    };
    // Layout for dim=3, rows=120: header 32, three 960-byte columns, then
    // the bitmap. Row 1 is alive (MakeState kills every 7th) — turn its
    // 1 into a 2.
    const size_t bitmap_off = 32 + 3 * 120 * 8;
    ASSERT_EQ(bad[bitmap_off + 1], 1);
    bad[bitmap_off + 1] = 2;
    // Recompute the bitmap block CRC (block index dim=3; footer entries
    // are 36 bytes each: off u64 | len u64 | crc u32 | zonemap 2*Scalar)
    // and the footer payload CRC in the trailer.
    size_t tcur = bad.size() - 8;
    const uint32_t payload_len = *ReadU32(bad.data(), bad.size(), &tcur);
    const size_t payload_start = bad.size() - 12 - payload_len;
    const size_t entry = payload_start + 8 + 3 * 36;
    put_u32(entry + 16, Crc32(bad.data() + bitmap_off, 120));
    put_u32(bad.size() - 12, Crc32(bad.data() + payload_start, payload_len));
    const std::string bad_path = TempPath("corrupt_bitmap.seg");
    Spit(bad_path, bad);
    std::string error;
    EXPECT_EQ(SegmentReader::Open(bad_path, &error), nullptr);
    EXPECT_NE(error.find("non-0/1"), std::string::npos) << error;
    std::remove(bad_path.c_str());
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------------- wal

std::vector<UpdateOp> InsertBatch(const Dataset& recs) {
  std::vector<UpdateOp> ops;
  for (const Record& r : recs) {
    UpdateOp op;
    op.kind = UpdateKind::kInsert;
    op.record = r;
    op.id = r.id;
    ops.push_back(std::move(op));
  }
  return ops;
}

TEST(Wal, AppendReplayRoundTrips) {
  const std::string path = TempPath("roundtrip.wal");
  std::string error;
  auto w = WalWriter::Create(path, 5, FsyncPolicy::kCommit, &error);
  ASSERT_NE(w, nullptr) << error;

  Dataset recs = Generate(Distribution::kIndependent, 6, 3, 21);
  ASSERT_TRUE(w->Append(InsertBatch({recs.begin(), recs.begin() + 4}), 6,
                        &error))
      << error;
  std::vector<UpdateOp> mixed;
  {
    UpdateOp erase;
    erase.kind = UpdateKind::kErase;
    erase.id = 2;
    mixed.push_back(erase);
    // Erase-then-revive of the same id inside one batch: replay order is
    // what keeps this correct, which is why the WAL logs ops in
    // application order.
    mixed.push_back(InsertBatch({recs.begin() + 2, recs.begin() + 3})[0]);
  }
  ASSERT_TRUE(w->Append(mixed, 7, &error)) << error;
  EXPECT_EQ(w->batches(), 2);
  const uint64_t bytes = w->bytes();
  w.reset();

  auto replay = ReadWal(path, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  EXPECT_EQ(replay->start_epoch, 5u);
  EXPECT_EQ(replay->last_epoch, 7u);
  EXPECT_EQ(replay->valid_bytes, bytes);
  EXPECT_EQ(replay->dropped_bytes, 0u);
  ASSERT_EQ(replay->batches.size(), 2u);
  ASSERT_EQ(replay->batches[0].size(), 4u);
  ASSERT_EQ(replay->batches[1].size(), 2u);
  // Ops come back in application order with exact ids and attributes.
  EXPECT_EQ(replay->batches[1][0].kind, UpdateKind::kErase);
  EXPECT_EQ(replay->batches[1][0].id, 2);
  EXPECT_EQ(replay->batches[1][1].kind, UpdateKind::kInsert);
  EXPECT_EQ(replay->batches[1][1].record.id, 2);
  EXPECT_EQ(replay->batches[1][1].record.attrs, recs[2].attrs);
  std::remove(path.c_str());
}

TEST(Wal, TornTailTruncatesToLastCommittedBatch) {
  const std::string path = TempPath("torn.wal");
  std::string error;
  auto w = WalWriter::Create(path, 0, FsyncPolicy::kNone, &error);
  ASSERT_NE(w, nullptr) << error;
  Dataset recs = Generate(Distribution::kIndependent, 9, 3, 33);
  ASSERT_TRUE(w->Append(InsertBatch({recs.begin(), recs.begin() + 3}), 1,
                        &error));
  const uint64_t committed = w->bytes();
  ASSERT_TRUE(w->Append(InsertBatch({recs.begin() + 3, recs.end()}), 2,
                        &error));
  w.reset();
  const std::string good = Slurp(path);

  // Cut anywhere inside the second batch: replay keeps exactly batch 1.
  for (size_t cut : {committed + 1, committed + 9, good.size() - 1}) {
    Spit(path, good.substr(0, cut));
    auto replay = ReadWal(path, &error);
    ASSERT_TRUE(replay.has_value()) << error;
    EXPECT_EQ(replay->last_epoch, 1u);
    ASSERT_EQ(replay->batches.size(), 1u);
    EXPECT_EQ(replay->valid_bytes, committed);
    EXPECT_EQ(replay->dropped_bytes, cut - committed);
  }

  // A bit flip mid-file behaves like a torn tail from that point on.
  std::string flipped = good;
  flipped[committed + 12] ^= 0x40;
  Spit(path, flipped);
  auto replay = ReadWal(path, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  EXPECT_EQ(replay->batches.size(), 1u);
  EXPECT_EQ(replay->valid_bytes, committed);

  // OpenForAppend truncates the damage and appending continues cleanly.
  Spit(path, good.substr(0, committed + 5));
  auto w2 = WalWriter::OpenForAppend(path, committed, FsyncPolicy::kCommit,
                                     &error);
  ASSERT_NE(w2, nullptr) << error;
  ASSERT_TRUE(w2->Append(InsertBatch({recs.begin() + 3, recs.begin() + 5}),
                         2, &error))
      << error;
  w2.reset();
  replay = ReadWal(path, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  EXPECT_EQ(replay->last_epoch, 2u);
  ASSERT_EQ(replay->batches.size(), 2u);
  EXPECT_EQ(replay->batches[1].size(), 2u);
  EXPECT_EQ(replay->dropped_bytes, 0u);
  std::remove(path.c_str());
}

TEST(Wal, RejectsNonWalFiles) {
  const std::string path = TempPath("notawal.wal");
  Spit(path, "definitely not a wal");
  std::string error;
  EXPECT_FALSE(ReadWal(path, &error).has_value());
  EXPECT_FALSE(error.empty());
  Spit(path, "");
  EXPECT_FALSE(ReadWal(path, &error).has_value());
  std::remove(path.c_str());
}

// ------------------------------------------------------ segment recovery

// A segment with tombstones recovered the way Catalog::Open does it: dead
// ids stay dead on both the r-skyband path and the compact fallback.
TEST(Recovery, TombstonesStayDead) {
  SavedState s = MakeState(200, 3, 29);
  const std::string path = TempPath("recovered_tomb.seg");
  ASSERT_EQ(WriteSegment(path, s.data, s.alive, s.tree, 1), std::nullopt);
  auto seg = SegmentReader::Open(path);
  ASSERT_NE(seg, nullptr);
  LiveEngine recovered(seg->MaterializeAll(), seg->AliveVector(), seg->Tree(),
                       seg->epoch());
  EXPECT_EQ(recovered.live_size(), s.tree.num_records());

  // Reference: an engine over the compacted live records, with answers
  // mapped back to stable ids.
  Dataset compact;
  std::vector<int32_t> stable;
  for (size_t i = 0; i < s.data.size(); ++i) {
    if (!s.alive[i]) continue;
    Record r = s.data[i];
    r.id = static_cast<int32_t>(compact.size());
    stable.push_back(static_cast<int32_t>(i));
    compact.push_back(std::move(r));
  }
  Engine reference(std::move(compact));
  for (Algorithm algo : {Algorithm::kRsa, Algorithm::kBaselineSk}) {
    QuerySpec spec = MakeSpec(QueryMode::kUtk1, algo, 3);
    QueryResult want = reference.Run(spec);
    QueryResult got = recovered.Run(spec);
    ASSERT_TRUE(got.ok) << got.error;
    std::vector<int32_t> mapped_want = want.ids;
    for (int32_t& id : mapped_want) id = stable[id];
    EXPECT_EQ(got.ids, mapped_want);
    for (int32_t id : got.ids) EXPECT_TRUE(s.alive[id]);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- catalog

void RemoveCatalogDir(const std::string& dir) {
  // Best-effort cleanup of the known layout (manifest + seg/wal files).
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
}

TEST(Catalog, CreateReopenReproducesExactState) {
  const std::string dir = TempPath("cat_roundtrip");
  RemoveCatalogDir(dir);
  Dataset data = Generate(Distribution::kIndependent, 150, 3, 41);
  CatalogOptions opt;
  opt.compact_wal_bytes = 0;  // keep the whole history in the WAL
  std::string error;
  auto cat = Catalog::Create(dir, data, opt, &error);
  ASSERT_NE(cat, nullptr) << error;

  // Mutate through every update path: singles and one batch (with an
  // erase-then-revive of the same id inside it).
  std::vector<UpdateOp> trace = MakeUpdateTrace(data, 60, {});
  int i = 0;
  for (; i < 20; ++i) {
    const UpdateOp& op = trace[i];
    if (op.kind == UpdateKind::kInsert)
      cat->live().Insert(op.record);
    else
      cat->live().Erase(op.id);
  }
  cat->live().ApplyBatch(std::span<const UpdateOp>(trace).subspan(20, 25));
  {
    // Erase-then-revive of the same id inside ONE batch: the op-ordered
    // WAL frames are what make this replayable.
    int32_t victim = -1;
    for (int32_t id = 0; id < 150 && victim < 0; ++id)
      if (cat->live().IsLive(id)) victim = id;
    ASSERT_GE(victim, 0);
    std::vector<UpdateOp> revive;
    UpdateOp erase;
    erase.kind = UpdateKind::kErase;
    erase.id = victim;
    revive.push_back(erase);
    UpdateOp back;
    back.kind = UpdateKind::kInsert;
    back.record = data[victim];
    revive.push_back(back);
    ASSERT_EQ(cat->live().ApplyBatch(revive), 2);
  }
  ASSERT_EQ(cat->io_error(), std::nullopt);

  const uint64_t epoch = cat->live().epoch();
  std::vector<int32_t> want_ids;
  Dataset want_compact = cat->live().CompactSnapshot(&want_ids);
  QuerySpec spec = MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, 3);
  QueryResult want = cat->live().Run(spec);
  ASSERT_TRUE(want.ok) << want.error;
  ASSERT_FALSE(want.ids.empty());
  CatalogStats stats = cat->stats();
  EXPECT_EQ(stats.epoch, epoch);
  EXPECT_GT(stats.wal_batches, 0);
  cat.reset();

  auto back = Catalog::Open(dir, opt, &error);
  ASSERT_NE(back, nullptr) << error;
  EXPECT_EQ(back->live().epoch(), epoch);
  std::vector<int32_t> got_ids;
  Dataset got_compact = back->live().CompactSnapshot(&got_ids);
  EXPECT_EQ(got_ids, want_ids);
  ASSERT_EQ(got_compact.size(), want_compact.size());
  for (size_t j = 0; j < got_compact.size(); ++j)
    EXPECT_EQ(got_compact[j].attrs, want_compact[j].attrs);
  QueryResult got = back->live().Run(spec);
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_EQ(got.ids, want.ids);
  CatalogStats rstats = back->stats();
  EXPECT_GT(rstats.replayed_batches, 0);
  EXPECT_EQ(rstats.replayed_batches, stats.wal_batches);
  // The reopened catalog keeps logging: one more update, one more reopen.
  back->live().Erase(got.ids[0]);
  const uint64_t epoch2 = back->live().epoch();
  back.reset();
  auto again = Catalog::Open(dir, opt, &error);
  ASSERT_NE(again, nullptr) << error;
  EXPECT_EQ(again->live().epoch(), epoch2);
  EXPECT_FALSE(again->live().IsLive(got.ids[0]));
  again.reset();
  RemoveCatalogDir(dir);
}

TEST(Catalog, CompactionFoldsWalAndRetiresOldFiles) {
  const std::string dir = TempPath("cat_compact");
  RemoveCatalogDir(dir);
  Dataset data = Generate(Distribution::kIndependent, 100, 3, 43);
  CatalogOptions opt;
  opt.compact_wal_bytes = 0;
  std::string error;
  auto cat = Catalog::Create(dir, data, opt, &error);
  ASSERT_NE(cat, nullptr) << error;
  std::vector<UpdateOp> trace = MakeUpdateTrace(data, 40, {});
  cat->live().ApplyBatch(trace);
  CatalogStats before = cat->stats();
  EXPECT_EQ(before.seqno, 1u);
  EXPECT_GT(before.wal_bytes, 16u);

  ASSERT_TRUE(cat->Compact(&error)) << error;
  CatalogStats after = cat->stats();
  EXPECT_EQ(after.seqno, 2u);
  EXPECT_EQ(after.compactions, 1);
  EXPECT_EQ(after.wal_batches, 0);
  EXPECT_NE(after.segment_file, before.segment_file);
  // Old pair is gone; reopen works off the new pair alone.
  std::ifstream old_seg(dir + "/" + before.segment_file);
  EXPECT_FALSE(old_seg.is_open());
  const uint64_t epoch = cat->live().epoch();
  std::vector<int32_t> want_ids;
  Dataset want_compact = cat->live().CompactSnapshot(&want_ids);
  cat.reset();
  auto back = Catalog::Open(dir, opt, &error);
  ASSERT_NE(back, nullptr) << error;
  EXPECT_EQ(back->live().epoch(), epoch);
  EXPECT_EQ(back->stats().replayed_batches, 0);
  std::vector<int32_t> got_ids;
  back->live().CompactSnapshot(&got_ids);
  EXPECT_EQ(got_ids, want_ids);
  back.reset();
  RemoveCatalogDir(dir);
}

TEST(Catalog, AutoCompactionTriggersOnThreshold) {
  const std::string dir = TempPath("cat_auto");
  RemoveCatalogDir(dir);
  Dataset data = Generate(Distribution::kIndependent, 80, 3, 47);
  CatalogOptions opt;
  opt.compact_wal_bytes = 512;  // tiny: a few batches trip it
  std::string error;
  auto cat = Catalog::Create(dir, data, opt, &error);
  ASSERT_NE(cat, nullptr) << error;
  std::vector<UpdateOp> trace = MakeUpdateTrace(data, 60, {});
  for (const UpdateOp& op : trace) {
    if (op.kind == UpdateKind::kInsert)
      cat->live().Insert(op.record);
    else
      cat->live().Erase(op.id);
  }
  ASSERT_EQ(cat->io_error(), std::nullopt);
  CatalogStats stats = cat->stats();
  EXPECT_GT(stats.compactions, 0);
  EXPECT_GT(stats.seqno, 1u);
  // The WAL stays under control and the catalog still reopens exactly.
  EXPECT_LE(stats.wal_bytes, opt.compact_wal_bytes + 512);
  const uint64_t epoch = cat->live().epoch();
  cat.reset();
  auto back = Catalog::Open(dir, opt, &error);
  ASSERT_NE(back, nullptr) << error;
  EXPECT_EQ(back->live().epoch(), epoch);
  back.reset();
  RemoveCatalogDir(dir);
}

TEST(Catalog, OpenRejectsCorruptedState) {
  const std::string dir = TempPath("cat_corrupt");
  RemoveCatalogDir(dir);
  Dataset data = Generate(Distribution::kIndependent, 60, 3, 51);
  std::string error;
  auto cat = Catalog::Create(dir, data, {}, &error);
  ASSERT_NE(cat, nullptr) << error;
  cat->live().Erase(0);
  CatalogStats stats = cat->stats();
  cat.reset();

  // Flip a byte inside the segment: open must refuse, not serve.
  const std::string seg_path = dir + "/" + stats.segment_file;
  const std::string seg_bytes = Slurp(seg_path);
  std::string bad = seg_bytes;
  bad[64] ^= 0x10;
  Spit(seg_path, bad);
  EXPECT_EQ(Catalog::Open(dir, {}, &error), nullptr);
  EXPECT_FALSE(error.empty());
  Spit(seg_path, seg_bytes);
  ASSERT_NE(Catalog::Open(dir, {}, &error), nullptr) << error;

  // A corrupted manifest is rejected too.
  const std::string man_path = dir + "/MANIFEST";
  const std::string man_bytes = Slurp(man_path);
  bad = man_bytes;
  bad[bad.size() / 2] ^= 0x01;
  Spit(man_path, bad);
  EXPECT_EQ(Catalog::Open(dir, {}, &error), nullptr);
  Spit(man_path, man_bytes);

  // Creating over an existing catalog is refused.
  EXPECT_EQ(Catalog::Create(dir, data, {}, &error), nullptr);
  EXPECT_NE(error.find("already holds"), std::string::npos) << error;
  RemoveCatalogDir(dir);
}

}  // namespace
}  // namespace utk
