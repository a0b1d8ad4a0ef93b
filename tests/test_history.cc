// Query-stats history (src/obs/history.h): CRC-framed round-trip, torn-tail
// truncation, mid-file corruption, size-capped rotation, the process-global
// sink, and the one-row-per-top-level-query engine integration (the live
// record count as `n`, whichever engine or Server records the row).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/planner.h"
#include "data/generator.h"
#include "live/live_engine.h"
#include "obs/history.h"
#include "serve/server.h"

namespace utk {
namespace {

std::string Path(const std::string& name) {
  const std::string p = ::testing::TempDir() + "utk_history_" + name;
  std::remove(p.c_str());
  std::remove((p + ".1").c_str());
  return p;
}

/// Uninstalls the global history sink on exit so no later test inherits it.
struct HistorySandbox {
  ~HistorySandbox() { obs::SetQueryHistory(nullptr); }
};

obs::HistoryRecord SampleRecord(int i) {
  obs::HistoryRecord rec;
  rec.ts_us = 1000 + i;
  rec.fingerprint = "utk1/rsa/k=8/d=2/r=" + std::to_string(i);
  rec.mode = 0;
  rec.k = 8;
  rec.n = 2000;
  rec.pref_dim = 2;
  rec.region_width = 0.25;
  rec.ran_algorithm = 1;
  rec.planned_algorithm = 1;
  rec.plan_reason = 4;
  rec.stats_csv = QueryStats{}.CsvRow();
  rec.top_spans = {{"rsa.refine", 1.5}, {"filter.rskyband", 0.5}};
  return rec;
}

int64_t FileSize(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f.is_open() ? static_cast<int64_t>(f.tellg()) : -1;
}

TEST(History, RoundTripsEveryField) {
  const std::string path = Path("roundtrip");
  {
    auto w = obs::HistoryWriter::Open(path);
    ASSERT_NE(w, nullptr);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(w->Append(SampleRecord(i)));
    EXPECT_TRUE(w->ok());
    EXPECT_EQ(w->records(), 5);
    EXPECT_EQ(w->rotations(), 0);
  }
  auto replay = obs::ReadHistory(path);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->dropped_bytes, 0u);
  ASSERT_EQ(replay->records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const obs::HistoryRecord& got = replay->records[i];
    const obs::HistoryRecord want = SampleRecord(i);
    EXPECT_EQ(got.ts_us, want.ts_us);
    EXPECT_EQ(got.fingerprint, want.fingerprint);
    EXPECT_EQ(got.mode, want.mode);
    EXPECT_EQ(got.k, want.k);
    EXPECT_EQ(got.n, want.n);
    EXPECT_EQ(got.pref_dim, want.pref_dim);
    EXPECT_DOUBLE_EQ(got.region_width, want.region_width);
    EXPECT_EQ(got.ran_algorithm, want.ran_algorithm);
    EXPECT_EQ(got.planned_algorithm, want.planned_algorithm);
    EXPECT_EQ(got.plan_reason, want.plan_reason);
    EXPECT_EQ(got.stats_csv, want.stats_csv);
    EXPECT_EQ(got.top_spans, want.top_spans);
  }
}

// Reasons the planner no longer produces (the small-n naive rule and the
// cost model) keep their numbers, so rows that carry them still decode and
// print by name.
TEST(History, RetiredPlanReasonsStillDecodeAndPrint) {
  const std::string path = Path("retired");
  const std::pair<uint8_t, const char*> reasons[] = {
      {2, "heuristic-small-n"}, {4, "cost-model"}, {5, "cost-model-fallback"}};
  {
    auto w = obs::HistoryWriter::Open(path);
    ASSERT_NE(w, nullptr);
    for (int i = 0; i < 3; ++i) {
      obs::HistoryRecord rec = SampleRecord(i);
      rec.plan_reason = reasons[i].first;
      ASSERT_TRUE(w->Append(rec));
    }
  }
  auto replay = obs::ReadHistory(path);
  ASSERT_TRUE(replay.has_value());
  ASSERT_EQ(replay->records.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const uint8_t got = replay->records[i].plan_reason;
    EXPECT_EQ(got, reasons[i].first);
    EXPECT_STREQ(PlanReasonName(static_cast<PlanReason>(got)),
                 reasons[i].second);
  }
}

TEST(History, TornTailIsDroppedAndTruncatedOnReopen) {
  const std::string path = Path("torn");
  {
    auto w = obs::HistoryWriter::Open(path);
    ASSERT_NE(w, nullptr);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(w->Append(SampleRecord(i)));
  }
  const int64_t clean_size = FileSize(path);
  {
    // A crash mid-append leaves a torn frame: half a header, no payload.
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0x00};
    f.write(torn, sizeof(torn));
  }
  auto replay = obs::ReadHistory(path);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->valid_bytes, static_cast<uint64_t>(clean_size));
  EXPECT_EQ(replay->dropped_bytes, 2u);

  // Reopen truncates the tail before appending, so the file ends clean.
  {
    auto w = obs::HistoryWriter::Open(path);
    ASSERT_NE(w, nullptr);
    ASSERT_TRUE(w->Append(SampleRecord(3)));
  }
  auto again = obs::ReadHistory(path);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->records.size(), 4u);
  EXPECT_EQ(again->dropped_bytes, 0u);
  EXPECT_EQ(again->records[3].fingerprint, SampleRecord(3).fingerprint);
}

TEST(History, CorruptFrameEndsTheCleanPrefix) {
  const std::string path = Path("corrupt");
  {
    auto w = obs::HistoryWriter::Open(path);
    ASSERT_NE(w, nullptr);
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(w->Append(SampleRecord(i)));
  }
  // Flip one payload byte in the third frame: its CRC fails, and — per the
  // no-resync-past-damage rule — frame 4 behind it is unreachable too.
  auto replay_clean = obs::ReadHistory(path);
  ASSERT_TRUE(replay_clean.has_value());
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  const int64_t two_frames =
      8 + 2 * ((FileSize(path) - 8) / 4);  // header + 2 of 4 equal frames
  f.seekp(two_frames + 12);                // inside frame 3's payload
  f.put('\xff');
  f.close();

  auto replay = obs::ReadHistory(path);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->records.size(), 2u);
  EXPECT_GT(replay->dropped_bytes, 0u);
  EXPECT_EQ(replay->records[1].fingerprint, SampleRecord(1).fingerprint);
}

TEST(History, NotAHistoryFileIsAnError) {
  const std::string path = Path("not_history");
  {
    std::ofstream f(path, std::ios::binary);
    f << "definitely not a history file, long enough to pass short reads";
  }
  std::string err;
  EXPECT_FALSE(obs::ReadHistory(path, &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(obs::HistoryWriter::Open(path, obs::kHistoryDefaultMaxBytes,
                                     &err),
            nullptr);
  EXPECT_FALSE(obs::ReadHistory(Path("missing")).has_value());
}

TEST(History, RotatesAtTheSizeCapAndKeepsOneGeneration) {
  const std::string path = Path("rotate");
  const uint64_t cap = 2048;
  int64_t rotations = 0;
  {
    auto w = obs::HistoryWriter::Open(path, cap);
    ASSERT_NE(w, nullptr);
    for (int i = 0; i < 200; ++i) ASSERT_TRUE(w->Append(SampleRecord(i)));
    EXPECT_TRUE(w->ok());
    EXPECT_EQ(w->records(), 200);
    rotations = w->rotations();
    EXPECT_GT(rotations, 0);
    EXPECT_LE(w->bytes(), cap);
  }
  // The live file and the one rotated generation both parse clean, cover
  // a contiguous suffix of the appends, and stay under the cap.
  auto live = obs::ReadHistory(path);
  auto old = obs::ReadHistory(path + ".1");
  ASSERT_TRUE(live.has_value());
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(live->dropped_bytes, 0u);
  EXPECT_EQ(old->dropped_bytes, 0u);
  ASSERT_FALSE(live->records.empty());
  ASSERT_FALSE(old->records.empty());
  EXPECT_LE(FileSize(path), static_cast<int64_t>(cap));
  EXPECT_LE(FileSize(path + ".1"), static_cast<int64_t>(cap));
  EXPECT_EQ(live->records.back().ts_us, SampleRecord(199).ts_us);
  EXPECT_EQ(old->records.back().ts_us + 1, live->records.front().ts_us);
}

// ---------------------------------------------------------------------------
// Global sink + engine integration.
// ---------------------------------------------------------------------------

TEST(History, EngineAppendsOneRowPerTopLevelQuery) {
  HistorySandbox sandbox;
  const std::string path = Path("engine");
  {
    std::shared_ptr<obs::HistoryWriter> w = obs::HistoryWriter::Open(path);
    ASSERT_NE(w, nullptr);
    obs::SetQueryHistory(w);

    Engine engine(Generate(Distribution::kIndependent, 300, 3, 23));
    QuerySpec spec;
    spec.mode = QueryMode::kUtk1;
    spec.algorithm = Algorithm::kAuto;
    spec.k = 7;
    spec.region = ConvexRegion::FromBox(Vec{0.2, 0.2}, Vec{0.4, 0.4});
    QueryResult r = engine.Run(spec);
    ASSERT_TRUE(r.ok);

    // Failed queries leave no row.
    QuerySpec bad = spec;
    bad.k = 0;
    EXPECT_FALSE(engine.Run(bad).ok);
    EXPECT_EQ(w->records(), 1);
    obs::SetQueryHistory(nullptr);

    // With the sink uninstalled, nothing records.
    ASSERT_TRUE(engine.Run(spec).ok);
    EXPECT_EQ(w->records(), 1);
  }
  auto replay = obs::ReadHistory(path);
  ASSERT_TRUE(replay.has_value());
  ASSERT_EQ(replay->records.size(), 1u);
  const obs::HistoryRecord& rec = replay->records[0];
  EXPECT_EQ(rec.mode, 0);
  EXPECT_EQ(rec.k, 7);
  EXPECT_EQ(rec.n, 300);
  EXPECT_EQ(rec.pref_dim, 2);
  EXPECT_EQ(rec.ran_algorithm, static_cast<uint8_t>(Algorithm::kRsa));
  EXPECT_EQ(rec.plan_reason,
            static_cast<uint8_t>(PlanReason::kHeuristicDefault));
  EXPECT_FALSE(rec.fingerprint.empty());
  EXPECT_NE(rec.fingerprint.find("utk1"), std::string::npos);
  // The stats CSV parses back and carries the run's planner surface.
  auto stats = QueryStats::FromCsvRow(rec.stats_csv);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->planned_algorithm,
            static_cast<int64_t>(Algorithm::kRsa));
}

TEST(History, ServedRowsCountLiveRecordsNotTombstones) {
  // A Server in front of a catalog with tombstones must record the n the
  // planner saw — the live count — exactly as an Engine built on the
  // compacted catalog records it.
  HistorySandbox sandbox;
  const std::string path = Path("served_n");
  std::shared_ptr<obs::HistoryWriter> w = obs::HistoryWriter::Open(path);
  ASSERT_NE(w, nullptr);

  auto live = std::make_shared<LiveEngine>(
      Generate(Distribution::kIndependent, 300, 3, 29));
  for (int32_t id = 0; id < 300; id += 3) ASSERT_TRUE(live->Erase(id));
  ASSERT_EQ(live->live_size(), 200);
  Engine compacted(live->CompactSnapshot());

  QuerySpec spec;
  spec.mode = QueryMode::kUtk1;
  spec.algorithm = Algorithm::kRsa;
  spec.k = 5;
  spec.region = ConvexRegion::FromBox(Vec{0.2, 0.2}, Vec{0.4, 0.4});
  obs::SetQueryHistory(w);
  ASSERT_TRUE(compacted.Run(spec).ok);
  Server server(live);
  ASSERT_TRUE(server.Query(spec).ok);
  obs::SetQueryHistory(nullptr);

  auto replay = obs::ReadHistory(path);
  ASSERT_TRUE(replay.has_value());
  ASSERT_EQ(replay->records.size(), 2u);
  for (const obs::HistoryRecord& rec : replay->records) {
    EXPECT_EQ(rec.n, live->live_size());
    EXPECT_EQ(rec.pref_dim, 2);
  }
}

TEST(History, OnlyTheOutermostScopeRecords) {
  HistorySandbox sandbox;
  const std::string path = Path("scopes");
  std::shared_ptr<obs::HistoryWriter> w = obs::HistoryWriter::Open(path);
  ASSERT_NE(w, nullptr);
  obs::SetQueryHistory(w);

  QuerySpec spec;
  spec.mode = QueryMode::kUtk1;
  spec.algorithm = Algorithm::kRsa;
  spec.k = 3;
  spec.region = ConvexRegion::FromBox(Vec{0.2, 0.2}, Vec{0.4, 0.4});
  QueryResult ok_result;
  ok_result.ok = true;
  ok_result.mode = QueryMode::kUtk1;
  ok_result.algorithm = Algorithm::kRsa;

  {
    QueryHistoryScope outer;
    {
      QueryHistoryScope inner;
      inner.Record(spec, ok_result, 100, 2);  // nested: swallowed
    }
    EXPECT_EQ(w->records(), 0);
    outer.Record(spec, ok_result, 100, 2);  // outermost: the one row
  }
  EXPECT_EQ(w->records(), 1);
}

// Regression: ok()/last_error() used to read writer state without the
// writer's mutex, racing concurrent Appends (caught by the thread-safety
// annotation pass; TSan sees the pre-fix data race through this test).
TEST(History, StatusReadsAreSafeAgainstConcurrentAppends) {
  const std::string path = Path("status_race");
  auto w = obs::HistoryWriter::Open(path);
  ASSERT_NE(w, nullptr);
  std::thread appender([&] {
    for (int i = 0; i < 200; ++i) w->Append(SampleRecord(i));
  });
  bool ok = true;
  std::string err;
  for (int i = 0; i < 200; ++i) {
    ok = w->ok() && ok;
    err = w->last_error();
  }
  appender.join();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(err.empty());
  EXPECT_EQ(w->records(), 200);
}

}  // namespace
}  // namespace utk
