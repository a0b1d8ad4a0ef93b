#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

namespace utk {
namespace {

TEST(Stats, AccumulateSumsCountersAndMaxesPeak) {
  QueryStats a, b;
  a.candidates = 10;
  a.lp_calls = 5;
  a.peak_bytes = 100;
  a.elapsed_ms = 1.5;
  b.candidates = 3;
  b.lp_calls = 7;
  b.peak_bytes = 250;
  b.elapsed_ms = 0.5;
  a.cache_hits = 2;
  a.cache_misses = 1;
  b.cache_semantic_hits = 4;
  b.cache_evictions = 5;
  a.epoch = 7;
  b.epoch = 3;
  a.rows_materialized = 4;
  b.rows_materialized = 6;
  a.mapped_bytes = 100;
  b.mapped_bytes = 80;
  a += b;
  EXPECT_EQ(a.candidates, 13);
  EXPECT_EQ(a.lp_calls, 12);
  EXPECT_EQ(a.peak_bytes, 250);  // max, not sum
  EXPECT_EQ(a.epoch, 7);  // a gauge like peak_bytes: the newest epoch wins
  EXPECT_EQ(a.rows_materialized, 10);  // sums
  EXPECT_EQ(a.mapped_bytes, 100);      // gauge: max
  EXPECT_DOUBLE_EQ(a.elapsed_ms, 2.0);
  // The serving-layer counters sum like the execution counters, so
  // RunBatch/QueryBatch totals report trace-wide hit/miss/eviction counts.
  EXPECT_EQ(a.cache_hits, 2);
  EXPECT_EQ(a.cache_semantic_hits, 4);
  EXPECT_EQ(a.cache_misses, 1);
  EXPECT_EQ(a.cache_evictions, 5);
}

TEST(Stats, MergeSumsCountersAndMaxesPeakGauges) {
  QueryStats a, b, c;
  a.candidates = 10;
  a.lp_calls = 5;
  a.peak_bytes = 100;
  a.heap_pops = 7;
  a.elapsed_ms = 1.5;
  b.candidates = 3;
  b.peak_bytes = 250;
  b.cache_hits = 2;
  b.elapsed_ms = 0.5;
  c.lp_calls = 4;
  c.peak_bytes = 30;
  c.cache_evictions = 1;

  const QueryStats parts[] = {a, b, c};
  QueryStats total = QueryStats::Merge(parts);
  EXPECT_EQ(total.candidates, 13);
  EXPECT_EQ(total.lp_calls, 9);
  EXPECT_EQ(total.heap_pops, 7);
  EXPECT_EQ(total.peak_bytes, 250);  // max, not sum
  EXPECT_EQ(total.cache_hits, 2);
  EXPECT_EQ(total.cache_evictions, 1);
  EXPECT_DOUBLE_EQ(total.elapsed_ms, 2.0);

  // Merge agrees with folding operator+= (it is the same rule), and an
  // empty span merges to default stats.
  QueryStats folded;
  for (const QueryStats& p : parts) folded += p;
  EXPECT_EQ(total.candidates, folded.candidates);
  EXPECT_EQ(total.peak_bytes, folded.peak_bytes);
  QueryStats empty = QueryStats::Merge({});
  EXPECT_EQ(empty.candidates, 0);
  EXPECT_EQ(empty.peak_bytes, 0);
  EXPECT_DOUBLE_EQ(empty.elapsed_ms, 0.0);
}

TEST(Stats, ToStringContainsAllFields) {
  QueryStats s;
  s.candidates = 42;
  s.drills = 7;
  s.cache_semantic_hits = 3;
  const std::string str = s.ToString();
  EXPECT_NE(str.find("candidates=42"), std::string::npos);
  EXPECT_NE(str.find("drills=7"), std::string::npos);
  EXPECT_NE(str.find("lp_calls=0"), std::string::npos);
  EXPECT_NE(str.find("cache_semantic_hits=3"), std::string::npos);
  EXPECT_NE(str.find("cache_misses=0"), std::string::npos);
}

TEST(Stats, CsvRoundTrips) {
  QueryStats s;
  s.candidates = 42;
  s.lp_calls = 17;
  s.rdom_tests = 3;
  s.cells_created = 99;
  s.halfspaces_inserted = 12;
  s.drills = 7;
  s.verify_calls = 4;
  s.heap_pops = 1000;
  s.peak_bytes = 1 << 20;
  s.cache_hits = 5;
  s.cache_semantic_hits = 2;
  s.cache_misses = 9;
  s.cache_evictions = 1;
  s.epoch = 12;
  s.rows_materialized = 33;
  s.mapped_bytes = 1 << 16;
  s.planned_algorithm = 2;
  s.plan_reason = 4;
  s.elapsed_ms = 1.25e-3;

  // Header and row have the same arity, and every field survives the trip —
  // elapsed_ms at full double precision.
  const std::string header = QueryStats::CsvHeader();
  const std::string row = s.CsvRow();
  EXPECT_EQ(std::count(header.begin(), header.end(), ','),
            std::count(row.begin(), row.end(), ','));
  EXPECT_NE(header.find("cache_hits"), std::string::npos);
  EXPECT_NE(header.find("cache_evictions"), std::string::npos);
  EXPECT_NE(header.find("planned_algorithm"), std::string::npos);
  EXPECT_NE(header.find("plan_reason"), std::string::npos);

  auto parsed = QueryStats::FromCsvRow(row);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->candidates, s.candidates);
  EXPECT_EQ(parsed->lp_calls, s.lp_calls);
  EXPECT_EQ(parsed->rdom_tests, s.rdom_tests);
  EXPECT_EQ(parsed->cells_created, s.cells_created);
  EXPECT_EQ(parsed->halfspaces_inserted, s.halfspaces_inserted);
  EXPECT_EQ(parsed->drills, s.drills);
  EXPECT_EQ(parsed->verify_calls, s.verify_calls);
  EXPECT_EQ(parsed->heap_pops, s.heap_pops);
  EXPECT_EQ(parsed->peak_bytes, s.peak_bytes);
  EXPECT_EQ(parsed->cache_hits, s.cache_hits);
  EXPECT_EQ(parsed->cache_semantic_hits, s.cache_semantic_hits);
  EXPECT_EQ(parsed->cache_misses, s.cache_misses);
  EXPECT_EQ(parsed->cache_evictions, s.cache_evictions);
  EXPECT_EQ(parsed->epoch, s.epoch);
  EXPECT_EQ(parsed->rows_materialized, s.rows_materialized);
  EXPECT_EQ(parsed->mapped_bytes, s.mapped_bytes);
  EXPECT_EQ(parsed->planned_algorithm, s.planned_algorithm);
  EXPECT_EQ(parsed->plan_reason, s.plan_reason);
  EXPECT_DOUBLE_EQ(parsed->elapsed_ms, s.elapsed_ms);

  // Default-constructed stats round-trip too (all-zero row).
  auto zero = QueryStats::FromCsvRow(QueryStats{}.CsvRow());
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->candidates, 0);
  EXPECT_DOUBLE_EQ(zero->elapsed_ms, 0.0);

  // Malformed rows are rejected, not misparsed.
  EXPECT_FALSE(QueryStats::FromCsvRow("").has_value());
  EXPECT_FALSE(QueryStats::FromCsvRow("1,2,3").has_value());
  EXPECT_FALSE(QueryStats::FromCsvRow(row + ",1").has_value());
  std::string bad = row;
  bad.replace(bad.find("42"), 2, "xx");
  EXPECT_FALSE(QueryStats::FromCsvRow(bad).has_value());
}

TEST(Stats, SerializationCoversEveryMember) {
  // Drift guard (pairs with the static_assert in stats.cc): QueryStats is
  // exactly N int64 counters followed by one double, so fill every counter
  // word with a distinct pattern and prove the CSV path carries each one.
  // A field added without extending CsvRow/FromCsvRow comes back zero here.
  constexpr size_t kWords =
      (sizeof(QueryStats) - sizeof(double)) / sizeof(int64_t);
  static_assert(kWords * sizeof(int64_t) + sizeof(double) ==
                    sizeof(QueryStats),
                "QueryStats must be int64 counters + trailing double");

  QueryStats s;
  auto words = [](QueryStats* q) {
    return reinterpret_cast<int64_t*>(q);  // standard-layout, all-int64 head
  };
  for (size_t w = 0; w < kWords; ++w) words(&s)[w] = 1000 + 7 * (int64_t)w;
  s.elapsed_ms = 0.125;

  // Header arity matches the member count (counters + elapsed_ms).
  const std::string header = QueryStats::CsvHeader();
  EXPECT_EQ(std::count(header.begin(), header.end(), ','),
            static_cast<long>(kWords));  // kWords+1 fields -> kWords commas

  auto parsed = QueryStats::FromCsvRow(s.CsvRow());
  ASSERT_TRUE(parsed.has_value());
  for (size_t w = 0; w < kWords; ++w)
    EXPECT_EQ(words(&*parsed)[w], 1000 + 7 * (int64_t)w) << "word " << w;
  EXPECT_DOUBLE_EQ(parsed->elapsed_ms, 0.125);

  // ToString names every member: each distinct value must appear.
  const std::string str = s.ToString();
  for (size_t w = 0; w < kWords; ++w) {
    std::string needle = "=";
    needle += std::to_string(1000 + 7 * (int64_t)w);
    EXPECT_NE(str.find(needle), std::string::npos)
        << "word " << w << " missing from ToString";
  }

  // operator+= touches every member: summing s into a zero stats can leave
  // no word at zero (counters sum, gauges max — either way the distinct
  // nonzero value must land).
  QueryStats zero;
  zero += s;
  for (size_t w = 0; w < kWords; ++w)
    EXPECT_EQ(words(&zero)[w], words(&s)[w]) << "word " << w;
  EXPECT_DOUBLE_EQ(zero.elapsed_ms, 0.125);

  // Merge agrees member-for-member with the fold.
  const QueryStats parts[] = {s, s};
  QueryStats merged = QueryStats::Merge(parts);
  QueryStats folded;
  folded += s;
  folded += s;
  for (size_t w = 0; w < kWords; ++w)
    EXPECT_EQ(words(&merged)[w], words(&folded)[w]) << "word " << w;
  EXPECT_DOUBLE_EQ(merged.elapsed_ms, folded.elapsed_ms);
}

TEST(Stats, TimerMeasuresElapsed) {
  Timer t;
  // utk-lint: allow(clock) the test sleeps to make wall time advance; it
  // is validating the stats clock, so it cannot also depend on it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double ms = t.ElapsedMs();
  EXPECT_GE(ms, 15.0);
  EXPECT_LT(ms, 2000.0);
  t.Reset();
  EXPECT_LT(t.ElapsedMs(), 15.0);
}

}  // namespace
}  // namespace utk
