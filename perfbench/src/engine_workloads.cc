// ind-filter and anti-refine: queries sent straight to utk::Engine::Run.
//
// ind-filter (IND, n=200k, d=4, UTK1, k=10, sigma=1%) is built so that the
// r-skyband filter does most of each query's work: refinement sees about a
// dozen candidates, and the 200k-row columns overflow L2 but fit in L3.
// anti-refine (ANTI, n=10k, d=4, UTK1 k=20 sigma=5% alternating with UTK2
// k=10 sigma=2%) is built so that refinement and the arrangement do most
// of the work: the filter is about a tenth of a UTK1 query, and UTK2 has a
// heavy tail. Both use the QuerySpec defaults (kAuto, refine_threads=0).
#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "api/engine.h"
#include "checks.h"
#include "core/jaa.h"
#include "core/rsa.h"
#include "data/generator.h"
#include "skyline/rskyband.h"
#include "workloads.h"

namespace perfbench {

using utk::Algorithm;
using utk::ConvexRegion;
using utk::Dataset;
using utk::Distribution;
using utk::Engine;
using utk::QueryMode;
using utk::QueryResult;
using utk::QuerySpec;
using Clock = std::chrono::steady_clock;

namespace {

/// Distinct requests per run; the loop cycles through them.
constexpr int kRequestPool = 4096;
/// Requests re-answered by the reference algorithms after the loop.
constexpr int kReferenceSample = 3;
/// Most requests the traced run replays.
constexpr int64_t kTraceMax = 20000;
/// anti-refine UTK1 requests the traced run repeats with refine_threads=4.
constexpr int kPoolSample = 16;

struct EngineWorkload {
  Distribution dist;
  int n;
  int dim;
  std::vector<QuerySpec> requests;
  bool pool_diagnostic = false;
};

QuerySpec Spec(QueryMode mode, int k, ConvexRegion region) {
  QuerySpec spec;
  spec.mode = mode;
  spec.k = k;
  spec.region = std::move(region);
  return spec;
}

int ModeIndex(const QuerySpec& spec) {
  return spec.mode == QueryMode::kUtk1 ? 0 : 1;
}

std::unique_ptr<Engine> SetUp(const EngineWorkload& w, RunResult& out,
                              Tracer& tracer) {
  std::vector<double> total, gen, build;
  std::unique_ptr<Engine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();  // one engine alive at a time, so peak RSS is one copy
    const auto t0 = Clock::now();
    Dataset data;
    {
      Scope span(tracer, "data.Generate");
      data = utk::Generate(w.dist, w.n, w.dim, kDataSeed);
    }
    const double g = SecondsSince(t0);
    {
      Scope span(tracer, "index.Engine");
      engine = std::make_unique<Engine>(std::move(data));
    }
    total.push_back(SecondsSince(t0));
    gen.push_back(g);
    build.push_back(total.back() - g);
  }
  out.metrics["setup_s"] = Quantile(total, 0.5);
  out.metrics["data.generate_s"] = Quantile(gen, 0.5);
  out.metrics["index.engine_build_s"] = Quantile(build, 0.5);
  return engine;
}

/// Phase A: the timed closed loop. Returns the number of requests sent.
int64_t Measure(const Engine& engine, const EngineWorkload& w,
                const RunOptions& opt, RunResult& out,
                std::vector<std::vector<int32_t>>& first) {
  std::vector<double> lat[2];
  std::vector<double> cells, halfspaces;
  double peak_bytes = 0.0, query_s = 0.0, check_s = 0.0;
  int64_t sent = 0;
  const auto start = Clock::now();
  while (SecondsSince(start) - check_s < opt.seconds) {
    const size_t slot = static_cast<size_t>(sent) % w.requests.size();
    const QuerySpec& spec = w.requests[slot];
    const auto t0 = Clock::now();
    QueryResult r = engine.Run(spec);
    const double dt = SecondsSince(t0);
    const auto c0 = Clock::now();
    query_s += dt;
    lat[ModeIndex(spec)].push_back(dt * 1e3);
    if (!r.ok) {
      out.Fail(Where(opt.seed, sent, spec) + ": " + r.error);
    } else {
      cells.push_back(static_cast<double>(r.stats.cells_created));
      halfspaces.push_back(static_cast<double>(r.stats.halfspaces_inserted));
      peak_bytes =
          std::max(peak_bytes, static_cast<double>(r.stats.peak_bytes));
      if (sent < static_cast<int64_t>(w.requests.size())) {
        first[slot] = r.ids;
        auto bad = spec.mode == QueryMode::kUtk1
                       ? CheckCorners(engine, spec, r.ids)
                       : CheckCells(engine, r.utk2, r.ids, spec.k);
        if (bad) out.Fail(Where(opt.seed, sent, spec) + ": " + *bad);
      } else if (!SameIds(first[slot], r.ids)) {
        out.Fail(Where(opt.seed, sent, spec) + ": answer changed on repeat");
      }
    }
    ++sent;
    check_s += SecondsSince(c0);
  }
  const double wall = SecondsSince(start) - check_s;
  out.metrics["peak_rss_mb"] = PeakRssMb();
  out.queries = sent;
  SetP50P90(out, "utk1_ms", lat[0]);
  if (!lat[1].empty()) SetP50P90(out, "utk2_ms", lat[1]);
  out.metrics["qps"] = Ratio(static_cast<double>(sent), query_s);
  out.metrics["ops_per_s"] = Ratio(static_cast<double>(sent), wall);
  out.metrics["arrangement.cells_mean"] = Mean(cells);
  out.metrics["arrangement.halfspaces_mean"] = Mean(halfspaces);
  out.metrics["arrangement.peak_bytes_max"] = peak_bytes;
  return sent;
}

/// Reference checks on the first few requests of each mode. Where
/// `utk1_refs`, a UTK1 answer (RSA under kAuto) is compared with JAA's UTK1
/// union and the SK baseline. A UTK2 answer (JAA under kAuto) has its union
/// compared with RSA's UTK1 answer. On anti-refine the JAA union of a k=20,
/// sigma=5% UTK1 request takes tens of seconds, so there RSA and JAA are
/// compared on the UTK2 requests only.
void CheckReferences(const Engine& engine, const EngineWorkload& w,
                     const RunOptions& opt, int64_t sent, bool utk1_refs,
                     std::vector<std::vector<int32_t>>& first,
                     RunResult& out) {
  int checked[2] = {0, 0};
  bool injected = false;
  for (size_t slot = 0; slot < w.requests.size(); ++slot) {
    const QuerySpec& spec = w.requests[slot];
    if (static_cast<int64_t>(slot) >= sent) break;
    const int mode = ModeIndex(spec);
    if (checked[mode] == kReferenceSample) continue;
    std::vector<Algorithm> refs;
    QuerySpec ref = spec;
    if (spec.mode == QueryMode::kUtk1 && utk1_refs) {
      refs = {Algorithm::kJaa, Algorithm::kBaselineSk};
    } else if (spec.mode == QueryMode::kUtk2) {
      ref.mode = QueryMode::kUtk1;
      refs = {Algorithm::kRsa};
    }
    if (refs.empty()) continue;
    ++checked[mode];
    std::vector<int32_t>& served = first[slot];
    if (opt.inject_fault && !injected) {
      InjectFault(served);
      injected = true;
    }
    for (Algorithm algo : refs) {
      ref.algorithm = algo;
      const QueryResult r = engine.Run(ref);
      if (!r.ok || !SameIds(r.ids, served))
        out.Fail(Where(opt.seed, static_cast<int64_t>(slot), spec) +
                 ": kAuto answer differs from " + utk::AlgorithmName(algo));
    }
  }
}

/// Phase B: replays the first `count` requests with spans around each
/// layer's public call, and splits every query into decide, filter and
/// refine, plus a plain top-k at the box centre.
void Trace(const Engine& engine, const EngineWorkload& w,
           const RunOptions& opt, int64_t count, Tracer& tracer,
           RunResult& out) {
  std::vector<double> run_ms[2], overhead_ms;
  std::vector<double> band, rdom, pops, lps, drills, verifies;
  for (int64_t i = 0; i < count; ++i) {
    const QuerySpec& spec =
        w.requests[static_cast<size_t>(i) % w.requests.size()];
    tracer.set_request(i);
    Scope request(tracer, "request");
    QueryResult r;
    const double run =
        Timed(tracer, "api.Engine::Run", [&] { r = engine.Run(spec); });
    utk::PlanDecision decision;
    Timed(tracer, "api.Engine::Decide",
          [&] { decision = engine.Decide(spec); });
    utk::QueryStats filter_stats;
    utk::RSkybandResult filtered;
    const double filter = Timed(tracer, "skyline.ComputeRSkyband", [&] {
      filtered = utk::ComputeRSkyband(engine.data(), engine.tree(),
                                      spec.region, spec.k, &filter_stats,
                                      &engine.cols());
    });
    std::vector<int32_t> refined;
    utk::QueryStats refine_stats;
    double refine = 0.0;
    if (decision.algorithm == Algorithm::kRsa) {
      utk::Rsa::Options o;  // mapped from the spec exactly as Engine::Run does
      o.use_drill = spec.use_drill;
      o.use_lemma1 = spec.use_lemma1;
      o.wave_cap = spec.wave_cap;
      o.refine_threads = spec.refine_threads;
      refine = Timed(tracer, "core.Rsa::RunFiltered", [&] {
        utk::Utk1Result res = utk::Rsa(o).RunFiltered(engine.data(), filtered,
                                                      spec.region, spec.k);
        refined = std::move(res.ids);
        refine_stats = res.stats;
      });
    } else if (decision.algorithm == Algorithm::kJaa) {
      utk::Jaa::Options o;
      o.use_lemma1 = spec.use_lemma1;
      o.wave_cap = spec.wave_cap;
      o.refine_threads = spec.refine_threads;
      refine = Timed(tracer, "core.Jaa::RunFiltered", [&] {
        utk::Utk2Result res = utk::Jaa(o).RunFiltered(engine.data(), filtered,
                                                      spec.region, spec.k);
        refined = res.AllRecords();
        refine_stats = res.stats;
      });
    } else {
      out.Fail(Where(opt.seed, i, spec) + ": kAuto planned " +
               utk::AlgorithmName(decision.algorithm) + ", not RSA or JAA");
      continue;
    }
    Timed(tracer, "exec.QueryEngine::TopK",
          [&] { engine.TopK(*spec.region.Pivot(), spec.k); });
    if (!r.ok || !SameIds(r.ids, refined))
      out.Fail(Where(opt.seed, i, spec) + ": filter + refine differs from Run");
    run_ms[ModeIndex(spec)].push_back(run);
    overhead_ms.push_back(run - filter - refine);
    band.push_back(static_cast<double>(filtered.ids.size()));
    rdom.push_back(static_cast<double>(filter_stats.rdom_tests));
    pops.push_back(static_cast<double>(filter_stats.heap_pops));
    lps.push_back(static_cast<double>(refine_stats.lp_calls));
    drills.push_back(static_cast<double>(refine_stats.drills));
    verifies.push_back(static_cast<double>(refine_stats.verify_calls));
  }
  tracer.set_request(-1);

  auto self = [&tracer](const char* name) { return tracer.SelfMs(name); };
  std::vector<double> refine_ms = self("core.Rsa::RunFiltered");
  for (double v : self("core.Jaa::RunFiltered")) refine_ms.push_back(v);
  out.metrics["api.decide_us_p50"] =
      Quantile(self("api.Engine::Decide"), 0.5) * 1e3;
  out.metrics["api.run_overhead_ms_p50"] = Quantile(overhead_ms, 0.5);
  SetP50P90(out, "skyline.rskyband_ms", self("skyline.ComputeRSkyband"));
  SetP50P90(out, "core.refine_ms", refine_ms);
  out.metrics["skyline.band_size_mean"] = Mean(band);
  out.metrics["skyline.rdom_tests_mean"] = Mean(rdom);
  out.metrics["skyline.heap_pops_mean"] = Mean(pops);
  out.metrics["core.lp_calls_mean"] = Mean(lps);
  out.metrics["core.drills_mean"] = Mean(drills);
  out.metrics["core.verify_calls_mean"] = Mean(verifies);
  out.metrics["exec.topk_us_p50"] =
      Quantile(self("exec.QueryEngine::TopK"), 0.5) * 1e3;
  out.metrics["trace.overhead_frac"] =
      Ratio(Quantile(run_ms[0], 0.5), out.metrics["utk1_ms_p50"]) - 1.0;

  if (!w.pool_diagnostic) return;
  // Serial against refine_threads=4 on the same UTK1 requests, alternating
  // which runs first so neither always sees the warmer cache.
  double serial_ms = 0.0, pool_ms = 0.0, task_us = 0.0, critical_us = 0.0;
  int done = 0;
  for (size_t slot = 0; slot < w.requests.size() && done < kPoolSample;
       ++slot) {
    if (w.requests[slot].mode != QueryMode::kUtk1) continue;
    const QuerySpec& serial = w.requests[slot];
    QuerySpec pooled = serial;
    pooled.refine_threads = 4;
    QueryResult rs, rp;
    for (int pass = 0; pass < 2; ++pass) {
      if ((pass == 0) == (done % 2 == 0)) {
        serial_ms += Timed(tracer, "pool.Engine::Run(serial)",
                           [&] { rs = engine.Run(serial); });
      } else {
        pool_ms += Timed(tracer, "pool.Engine::Run(refine_threads=4)",
                         [&] { rp = engine.Run(pooled); });
      }
    }
    task_us += static_cast<double>(rp.stats.refine_task_us);
    critical_us += static_cast<double>(rp.stats.refine_critical_us);
    if (!rs.ok || !rp.ok || !SameIds(rs.ids, rp.ids))
      out.Fail(Where(opt.seed, static_cast<int64_t>(slot), serial) +
               ": refine_threads=4 answer differs from serial");
    ++done;
  }
  out.metrics["pool.rsa_refine_wall_ratio"] = Ratio(serial_ms, pool_ms);
  out.metrics["pool.rsa_makespan_ratio"] = Ratio(task_us, critical_us);
}

RunResult RunEngineWorkload(EngineWorkload w, const RunOptions& opt,
                            Tracer& tracer, bool utk1_refs) {
  RunResult out;
  std::unique_ptr<Engine> engine = SetUp(w, out, tracer);
  std::vector<std::vector<int32_t>> first(w.requests.size());
  const int64_t sent = Measure(*engine, w, opt, out, first);
  CheckReferences(*engine, w, opt, sent, utk1_refs, first, out);
  if (tracer.enabled())
    Trace(*engine, w, opt, std::min(sent, kTraceMax), tracer, out);
  return out;
}

}  // namespace

RunResult RunIndFilter(const RunOptions& opt, Tracer& tracer) {
  EngineWorkload w{Distribution::kIndependent, 200000, 4, {}};
  for (ConvexRegion& box :
       QueryBoxes(3, 0.01, kRequestPool, DeriveSeed(opt.seed, 1)))
    w.requests.push_back(Spec(QueryMode::kUtk1, 10, std::move(box)));
  return RunEngineWorkload(std::move(w), opt, tracer, /*utk1_refs=*/true);
}

RunResult RunAntiRefine(const RunOptions& opt, Tracer& tracer) {
  EngineWorkload w{Distribution::kAnticorrelated, 10000, 4, {}};
  w.pool_diagnostic = true;
  std::vector<ConvexRegion> utk1 =
      QueryBoxes(3, 0.05, kRequestPool / 2, DeriveSeed(opt.seed, 1));
  std::vector<ConvexRegion> utk2 =
      QueryBoxes(3, 0.02, kRequestPool / 2, DeriveSeed(opt.seed, 2));
  for (size_t i = 0; i < utk1.size(); ++i) {
    w.requests.push_back(Spec(QueryMode::kUtk1, 20, std::move(utk1[i])));
    w.requests.push_back(Spec(QueryMode::kUtk2, 10, std::move(utk2[i])));
  }
  return RunEngineWorkload(std::move(w), opt, tracer, /*utk1_refs=*/false);
}

}  // namespace perfbench
