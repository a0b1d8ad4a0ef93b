// Observability subsystem (src/obs/): metric registry exactness under
// concurrency, histogram bucket/quantile edges, span-tree well-formedness,
// trace-JSON schema, and the slow-query log.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "data/generator.h"
#include "live/live_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace utk {
namespace {

/// Restores the tracer and slow-query log to their defaults on scope exit so
/// one test cannot leak global observability state into the next.
struct ObsSandbox {
  ObsSandbox() {
    obs::SetTracingEnabled(false);
    obs::ClearTrace();
  }
  ~ObsSandbox() {
    obs::SetTracingEnabled(false);
    obs::ClearTrace();
    obs::SetSlowQueryThresholdMs(-1.0);
    obs::SetSlowQuerySink(nullptr);
  }
};

TEST(Metrics, CounterIsExactUnderConcurrentWriters) {
  obs::Counter& c = obs::MetricRegistry::Global().GetCounter(
      "test_obs_concurrent_counter_total");
  c.Zero();
  constexpr int kThreads = 8;
  constexpr int kAdds = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.Add(1);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.Value(), int64_t{kThreads} * kAdds);
}

TEST(Metrics, HistogramTotalsAreExactUnderConcurrentWriters) {
  obs::Histogram& h = obs::MetricRegistry::Global().GetHistogram(
      "test_obs_concurrent_histogram_us");
  h.Zero();
  constexpr int kThreads = 8;
  constexpr int kObs = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kObs; ++i) h.Observe(t + 1);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(h.Count(), int64_t{kThreads} * kObs);
  // sum of (t+1) over threads = kThreads*(kThreads+1)/2 per round.
  EXPECT_EQ(h.Sum(), int64_t{kObs} * kThreads * (kThreads + 1) / 2);
  // Bucket membership: 1 -> bucket 0; 2 -> bucket 1; 3,4 -> bucket 2;
  // 5..8 -> bucket 3. Threads observed 1..8, kObs times each.
  EXPECT_EQ(h.BucketCount(0), int64_t{kObs});
  EXPECT_EQ(h.BucketCount(1), int64_t{kObs});
  EXPECT_EQ(h.BucketCount(2), 2 * int64_t{kObs});
  EXPECT_EQ(h.BucketCount(3), 4 * int64_t{kObs});
}

TEST(Metrics, RegistryInterningIsStableUnderConcurrentLookups) {
  auto& reg = obs::MetricRegistry::Global();
  std::atomic<obs::Counter*> seen[4] = {};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&reg, &seen, t] {
      obs::Counter& c = reg.GetCounter("test_obs_interned_total");
      c.Add();
      seen[t].store(&c);
    });
  }
  for (std::thread& w : workers) w.join();
  // Every thread must have received the same object.
  for (int t = 1; t < 4; ++t) EXPECT_EQ(seen[t].load(), seen[0].load());
  EXPECT_EQ(seen[0].load()->Value(), 4);
}

TEST(Metrics, HistogramBucketEdges) {
  // Bucket 0 holds v <= 1; bucket b >= 1 holds (2^(b-1), 2^b].
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0);
  EXPECT_EQ(obs::Histogram::BucketOf(1), 0);
  EXPECT_EQ(obs::Histogram::BucketOf(2), 1);
  EXPECT_EQ(obs::Histogram::BucketOf(3), 2);
  EXPECT_EQ(obs::Histogram::BucketOf(4), 2);
  EXPECT_EQ(obs::Histogram::BucketOf(5), 3);
  EXPECT_EQ(obs::Histogram::BucketOf(8), 3);
  EXPECT_EQ(obs::Histogram::BucketOf(9), 4);
  EXPECT_EQ(obs::Histogram::BucketOf(1024), 10);
  EXPECT_EQ(obs::Histogram::BucketOf(1025), 11);
  EXPECT_EQ(obs::Histogram::BucketOf(INT64_MAX), obs::Histogram::kBuckets - 1);
  // Upper bounds are 2^b, saturating instead of overflowing.
  EXPECT_EQ(obs::Histogram::BucketUpper(0), 1);
  EXPECT_EQ(obs::Histogram::BucketUpper(10), 1024);
  EXPECT_EQ(obs::Histogram::BucketUpper(63), INT64_MAX);
}

TEST(Metrics, HistogramQuantiles) {
  obs::Histogram& h =
      obs::MetricRegistry::Global().GetHistogram("test_obs_quantile_us");
  h.Zero();
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // empty histogram
  // 100 samples of 1000us: every quantile lands inside bucket 10
  // (512, 1024], never outside it.
  for (int i = 0; i < 100; ++i) h.Observe(1000);
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_GT(v, 512.0) << "q=" << q;
    EXPECT_LE(v, 1024.0) << "q=" << q;
  }
  // Bimodal: 90 fast (<=1us) + 10 slow (~1ms). p50 stays in the fast
  // bucket, p99 in the slow one — the log buckets keep the tail visible.
  h.Zero();
  for (int i = 0; i < 90; ++i) h.Observe(1);
  for (int i = 0; i < 10; ++i) h.Observe(1000);
  EXPECT_LE(h.Quantile(0.5), 1.0);
  EXPECT_GT(h.Quantile(0.99), 512.0);
}

TEST(Metrics, ExportsCarryCountersAndQuantiles) {
  auto& reg = obs::MetricRegistry::Global();
  reg.GetCounter("test_obs_export_total").Zero();
  reg.GetCounter("test_obs_export_total").Add(7);
  obs::Histogram& h = reg.GetHistogram("test_obs_export_latency_us");
  h.Zero();
  for (int i = 0; i < 4; ++i) h.Observe(100);

  const std::string prom = reg.PrometheusText();
  EXPECT_NE(prom.find("# TYPE test_obs_export_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("test_obs_export_total 7"), std::string::npos);
  EXPECT_NE(prom.find("test_obs_export_latency_us_count 4"),
            std::string::npos);
  EXPECT_NE(prom.find("test_obs_export_latency_us_sum 400"),
            std::string::npos);
  EXPECT_NE(prom.find("_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(prom.find("test_obs_export_latency_us_q{quantile=\"0.99\"}"),
            std::string::npos);

  const std::string json = reg.JsonSnapshot();
  EXPECT_NE(json.find("\"test_obs_export_total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(Metrics, EveryRunCountsOneQueryOnEveryEngineAndPath) {
  // One pipeline, one bookkeeping step: every top-level Run adds exactly
  // one query, one latency sample and (threshold 0) one slow-log line
  // labelled with the engine's root span — whichever engine and path ran.
  ObsSandbox sandbox;
  const Dataset data = Generate(Distribution::kIndependent, 150, 3, 71);
  auto engine = std::make_shared<const Engine>(data);
  auto live = std::make_shared<LiveEngine>(data);
  for (int32_t id = 0; id < 150; id += 5) ASSERT_TRUE(live->Erase(id));

  std::vector<std::string> lines;
  obs::SetSlowQuerySink([&lines](const std::string& s) {
    lines.push_back(s);
  });
  obs::SetSlowQueryThresholdMs(0.0);
  obs::Counter& queries = obs::MetricRegistry::Global().GetCounter(
      "utk_engine_queries_total");
  obs::Histogram& latency = obs::MetricRegistry::Global().GetHistogram(
      "utk_engine_query_latency_us");

  const std::vector<std::pair<std::string, std::shared_ptr<const QueryEngine>>>
      engines = {{"engine.run", engine}, {"live.run", live}};
  QuerySpec spec;
  spec.k = 3;
  spec.region = ConvexRegion::FromBox(Vec{0.25, 0.25}, Vec{0.4, 0.4});
  for (const auto& [root_op, e] : engines) {
    for (Algorithm algo : {Algorithm::kRsa, Algorithm::kJaa,
                           Algorithm::kBaselineSk, Algorithm::kNaive}) {
      SCOPED_TRACE(root_op + " " + AlgorithmName(algo));
      spec.algorithm = algo;
      const int64_t before = queries.Value();
      const int64_t samples = latency.Count();
      lines.clear();
      ASSERT_TRUE(e->Run(spec).ok);
      EXPECT_EQ(queries.Value(), before + 1);
      EXPECT_EQ(latency.Count(), samples + 1);
      ASSERT_EQ(lines.size(), 1u);
      EXPECT_NE(lines[0].find("slow-query label=" + root_op + " "),
                std::string::npos)
          << lines[0];
    }
  }
  // A rejected spec runs nothing and counts nothing.
  spec.k = 0;
  const int64_t before = queries.Value();
  EXPECT_FALSE(live->Run(spec).ok);
  EXPECT_EQ(queries.Value(), before);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Trace, DisabledRecordsNothing) {
  ObsSandbox sandbox;
  { UTK_SPAN("test.should_not_record"); }
  EXPECT_EQ(obs::TraceEventCount(), 0u);
}

TEST(Trace, SpanTreeIsWellFormed) {
  ObsSandbox sandbox;
  obs::SetTracingEnabled(true);
  {
    UTK_SPAN("test.outer");
    {
      UTK_SPAN_VAL("test.mid", 42);
      { UTK_SPAN("test.inner"); }
    }
  }
  { UTK_SPAN("test.after"); }
  obs::SetTracingEnabled(false);

  std::vector<obs::TraceEvent> events = obs::TraceSnapshot();
  ASSERT_EQ(events.size(), 4u);
  std::map<std::string, obs::TraceEvent> by_name;
  for (const obs::TraceEvent& e : events) by_name[e.name] = e;
  ASSERT_TRUE(by_name.count("test.outer"));
  ASSERT_TRUE(by_name.count("test.mid"));
  ASSERT_TRUE(by_name.count("test.inner"));
  ASSERT_TRUE(by_name.count("test.after"));

  // Depth reflects lexical nesting, and closing spans rewinds it: the
  // sibling opened after the nest sits back at depth 0.
  EXPECT_EQ(by_name["test.outer"].depth, 0);
  EXPECT_EQ(by_name["test.mid"].depth, 1);
  EXPECT_EQ(by_name["test.inner"].depth, 2);
  EXPECT_EQ(by_name["test.after"].depth, 0);
  EXPECT_EQ(by_name["test.mid"].arg, 42);
  EXPECT_EQ(by_name["test.outer"].arg, -1);

  // Time containment: every child interval nests inside its parent's.
  auto contains = [](const obs::TraceEvent& parent,
                     const obs::TraceEvent& child) {
    return parent.ts_us <= child.ts_us &&
           child.ts_us + child.dur_us <= parent.ts_us + parent.dur_us;
  };
  EXPECT_TRUE(contains(by_name["test.outer"], by_name["test.mid"]));
  EXPECT_TRUE(contains(by_name["test.mid"], by_name["test.inner"]));
  for (const obs::TraceEvent& e : events) EXPECT_GE(e.dur_us, 0);
}

TEST(Trace, NestedRunBatchSpansStayBalancedPerThread) {
  ObsSandbox sandbox;
  Dataset data = Generate(Distribution::kAnticorrelated, 400, 3, 7);
  Engine engine(std::move(data));
  std::vector<QuerySpec> specs;
  for (int q = 0; q < 6; ++q) {
    QuerySpec spec;
    spec.mode = QueryMode::kUtk1;
    spec.k = 3;
    Vec lo(2), hi(2);
    lo[0] = 0.2 + 0.05 * q;
    hi[0] = lo[0] + 0.2;
    lo[1] = 0.3;
    hi[1] = 0.5;
    spec.region = ConvexRegion::FromBox(lo, hi);
    specs.push_back(std::move(spec));
  }

  obs::SetTracingEnabled(true);
  BatchQueryResult batch = engine.RunBatch(specs, 3);
  obs::SetTracingEnabled(false);
  ASSERT_EQ(batch.failed, 0);

  std::vector<obs::TraceEvent> events = obs::TraceSnapshot();
  ASSERT_FALSE(events.empty());

  // Each worker thread carries its own track: every engine.run on it must
  // be deeper than nothing (depth >= 0), every filter/refine span deeper
  // than its thread's engine.run, and per-thread depths must rewind — the
  // recorded multiset of depths per thread forms a proper tree under the
  // close-order invariant (a span closes only after its children).
  std::map<uint32_t, std::vector<obs::TraceEvent>> per_thread;
  int runs = 0;
  for (const obs::TraceEvent& e : events) {
    per_thread[e.tid].push_back(e);
    if (std::string(e.name) == "engine.run") {
      ++runs;
      // A query runs at depth 0 on the track of a lane ParallelFor
      // spawned, or at depth 1 when the calling thread, lane 0, runs it
      // inside its own engine.batch span (common/parallel.h).
      EXPECT_LE(e.depth, 1);
    }
    if (std::string(e.name) == "filter.rskyband") {
      EXPECT_GE(e.depth, 1);
    }
    EXPECT_GE(e.dur_us, 0);
  }
  EXPECT_EQ(runs, 6);  // one top-level span per query, across all threads

  for (auto& [tid, track] : per_thread) {
    // Events are recorded in close order, and children close before their
    // parents — so a depth-d span's parent is the FIRST later-closing event
    // at depth d-1 on the same thread (no other d-1 span can close while
    // the real parent is still open). Every span must have one, and the
    // parent's interval must contain the child's: balanced open/close and
    // correct parentage in one sweep.
    for (size_t i = 0; i < track.size(); ++i) {
      const obs::TraceEvent& e = track[i];
      if (e.depth == 0) continue;
      const obs::TraceEvent* parent = nullptr;
      for (size_t j = i + 1; j < track.size() && parent == nullptr; ++j) {
        if (track[j].depth == e.depth - 1) parent = &track[j];
      }
      ASSERT_NE(parent, nullptr)
          << "thread " << tid << " span " << e.name << " at depth "
          << e.depth << " never saw its parent close";
      EXPECT_LE(parent->ts_us, e.ts_us) << e.name;
      EXPECT_GE(parent->ts_us + parent->dur_us, e.ts_us + e.dur_us)
          << e.name;
    }
  }
}

TEST(Trace, JsonMatchesChromeTraceSchema) {
  ObsSandbox sandbox;
  obs::SetTracingEnabled(true);
  {
    UTK_SPAN("test.json_outer");
    UTK_SPAN_VAL("test.json_inner", 5);
  }
  obs::SetTracingEnabled(false);

  const std::string json = obs::TraceJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Every event is a complete ("X") event carrying name/ts/dur/pid/tid.
  const size_t events = obs::TraceEventCount();
  ASSERT_EQ(events, 2u);
  for (const char* key :
       {"\"ph\":\"X\"", "\"name\":", "\"ts\":", "\"dur\":", "\"pid\":",
        "\"tid\":", "\"args\":{\"depth\":"}) {
    size_t found = 0, at = 0;
    while ((at = json.find(key, at)) != std::string::npos) {
      ++found;
      at += 1;
    }
    EXPECT_EQ(found, events) << "key " << key;
  }
  EXPECT_NE(json.find("\"test.json_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":5"), std::string::npos);

  obs::ClearTrace();
  EXPECT_EQ(obs::TraceEventCount(), 0u);
  EXPECT_NE(obs::TraceJson().find("\"traceEvents\":[]"), std::string::npos);
}

TEST(Trace, SlowQueryLogEmitsFingerprintStatsAndTopSpans) {
  ObsSandbox sandbox;
  Dataset data = Generate(Distribution::kAnticorrelated, 500, 3, 11);
  Engine engine(std::move(data));
  QuerySpec spec;
  spec.mode = QueryMode::kUtk1;
  spec.k = 4;
  Vec lo(2), hi(2);
  lo[0] = lo[1] = 0.2;
  hi[0] = hi[1] = 0.45;
  spec.region = ConvexRegion::FromBox(lo, hi);

  std::vector<std::string> lines;
  obs::SetSlowQuerySink([&lines](const std::string& s) {
    lines.push_back(s);
  });

  // Threshold off (negative): nothing logs.
  obs::SetSlowQueryThresholdMs(-1.0);
  ASSERT_TRUE(engine.Run(spec).ok);
  EXPECT_TRUE(lines.empty());

  // Threshold 0: every query logs, once (the engine scope is the only
  // scope). With tracing on, the line carries span attribution.
  obs::SetTracingEnabled(true);
  obs::SetSlowQueryThresholdMs(0.0);
  ASSERT_TRUE(engine.Run(spec).ok);
  obs::SetTracingEnabled(false);
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_NE(line.find("slow-query label=engine.run"), std::string::npos);
  EXPECT_NE(line.find("fp=utk1/"), std::string::npos);
  EXPECT_NE(line.find("elapsed_ms="), std::string::npos);
  EXPECT_NE(line.find("top_spans=["), std::string::npos);
  // Only the top 3 spans by total duration are listed; for an RSA query
  // those come from the filter or refinement subsystems.
  EXPECT_TRUE(line.find("rsa.") != std::string::npos ||
              line.find("filter.") != std::string::npos ||
              line.find("arrangement.") != std::string::npos)
      << line;
  EXPECT_NE(line.find("stats={"), std::string::npos);
  EXPECT_NE(line.find("candidates="), std::string::npos);
}

TEST(Trace, TracingDoesNotChangeQueryResults) {
  ObsSandbox sandbox;
  Dataset data = Generate(Distribution::kIndependent, 600, 4, 3);
  Engine engine(std::move(data));
  QuerySpec spec;
  spec.mode = QueryMode::kUtk2;
  spec.k = 3;
  Vec lo(3), hi(3);
  for (int i = 0; i < 3; ++i) {
    lo[i] = 0.25;
    hi[i] = 0.4;
  }
  spec.region = ConvexRegion::FromBox(lo, hi);

  QueryResult off = engine.Run(spec);
  obs::SetTracingEnabled(true);
  QueryResult on = engine.Run(spec);
  obs::SetTracingEnabled(false);
  ASSERT_TRUE(off.ok);
  ASSERT_TRUE(on.ok);
  EXPECT_EQ(off.ids, on.ids);
  EXPECT_EQ(off.utk2.cells.size(), on.utk2.cells.size());
  for (size_t i = 0; i < off.utk2.cells.size(); ++i)
    EXPECT_EQ(off.utk2.cells[i].topk, on.utk2.cells[i].topk);
}

}  // namespace
}  // namespace utk
