// serve-live: reads through a Server (semantic ResultCache, default 4096
// entries) in front of a Catalog-backed LiveEngine, with writes beside
// them.
//
// Data is IND, n=50k, d=4, persisted in a fresh catalog directory at
// set-up. Reads follow the MakeServeTrace mix (hot sigma=2%, 40% repeats,
// 30% sub-regions, 30% fresh regions), k=10, one request in four as UTK2. After
// every 5 reads, one ApplyBatch of 8 MakeUpdateTrace ops (half inserts,
// half erases) commits an epoch, logged to the WAL without fsync: under
// per-commit fsync the device's own flush time swings the update latency
// by more than any change to this program would. The cache holds the whole
// working set, so misses come from fresh regions and invalidation sweeps,
// not from eviction. After the stream the catalog is closed and reopened.
#include <stdlib.h>

#include <array>
#include <chrono>
#include <filesystem>
#include <memory>
#include <span>
#include <vector>

#include "api/engine.h"
#include "checks.h"
#include "common/rng.h"
#include "data/generator.h"
#include "data/workload.h"
#include "live/live_engine.h"
#include "serve/server.h"
#include "storage/catalog.h"
#include "workloads.h"

namespace perfbench {

using utk::Catalog;
using utk::Dataset;
using utk::QueryMode;
using utk::QueryResult;
using utk::QuerySpec;
using utk::UpdateOp;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kN = 50000;
constexpr int kDim = 4;
constexpr int kK = 10;
constexpr double kSigma = 0.02;
constexpr int kReadsPerStep = 5;
constexpr int kOpsPerBatch = 8;
/// Length of the generated stream; the timed loop never gets near it.
constexpr int kMaxSteps = 4000;
/// Hot regions the repeats and sub-regions are drawn from. With the
/// generator's default of 4, which regions happen to be hot decided most
/// of a run's latency, and the medians moved several-fold between seeds.
/// Each is queried once per mode before the timed loop, so the loop
/// measures the warm cache rather than its warm-up.
constexpr int kHotRegions = 256;
/// Steps between checks of the served answers against a fresh Engine.
constexpr int kCheckEvery = 16;
/// Requests re-answered after the reopen.
constexpr int kReopenSample = 4;

/// A fresh directory under `parent`, removed with everything in it when
/// the object goes away.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::string pattern = parent + "/serve-live-XXXXXX";
    if (::mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

utk::CatalogOptions Options() {
  utk::CatalogOptions opt;
  opt.fsync = utk::FsyncPolicy::kNone;
  return opt;
}

/// A catalog with a cache-first server in front of it. Members are
/// declared in dependency order, so destruction detaches the cache before
/// the engine goes and removes the directory last.
struct Stack {
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<utk::Server> server;
  std::unique_ptr<utk::CacheAttachment> link;

  /// Closes the catalog, keeping its directory.
  void Close() {
    link.reset();
    server.reset();
    catalog.reset();
  }
  /// Closes the catalog and removes its directory.
  void Reset() {
    Close();
    dir.reset();
  }
};

bool CreateStack(Stack& stack, Dataset data, const std::string& work_dir,
          RunResult& out) {
  stack.dir = std::make_unique<TempDir>(work_dir);
  if (stack.dir->path().empty()) {
    out.Fail("cannot create a catalog directory under " + work_dir);
    return false;
  }
  std::string error;
  stack.catalog =
      Catalog::Create(stack.dir->path(), std::move(data), Options(), &error);
  if (stack.catalog == nullptr) {
    out.Fail("Catalog::Create: " + error);
    return false;
  }
  stack.server = std::make_unique<utk::Server>(stack.catalog->engine());
  stack.link = std::make_unique<utk::CacheAttachment>(
      stack.catalog->live(), stack.server->cache());
  return true;
}

struct Stream {
  std::vector<QuerySpec> warmup;  ///< every hot region in both modes
  std::vector<QuerySpec> reads;
  std::vector<UpdateOp> ops;

  std::span<const UpdateOp> Batch(int64_t step) const {
    return std::span<const UpdateOp>(ops).subspan(
        static_cast<size_t>(step) * kOpsPerBatch, kOpsPerBatch);
  }
};

/// The MakeServeTrace mix (40% repeats of a hot region, 30% sub-boxes of
/// one at half its side, 30% fresh regions) with the hot and fresh boxes
/// placed by QueryBoxes. With independently drawn boxes, a few expensive
/// UTK2 misses moved a run's mean query time by a fifth between seeds.
Stream MakeStream(const Dataset& initial, uint64_t seed) {
  Stream s;
  const std::vector<utk::ConvexRegion> hot =
      QueryBoxes(kDim - 1, kSigma, kHotRegions, DeriveSeed(seed, 1));
  const std::vector<utk::ConvexRegion> fresh = QueryBoxes(
      kDim - 1, kSigma, kMaxSteps * kReadsPerStep, DeriveSeed(seed, 2));
  auto spec = [](QueryMode mode, utk::ConvexRegion region) {
    QuerySpec q;
    q.mode = mode;
    q.k = kK;
    q.region = std::move(region);
    return q;
  };
  for (const utk::ConvexRegion& region : hot) {
    s.warmup.push_back(spec(QueryMode::kUtk1, region));
    s.warmup.push_back(spec(QueryMode::kUtk2, region));
  }
  utk::Rng rng(DeriveSeed(seed, 3));
  for (size_t i = 0; i < fresh.size(); ++i) {
    const double u = rng.Uniform(0.0, 1.0);
    const utk::ConvexRegion& parent =
        hot[static_cast<size_t>(rng.UniformInt(0, kHotRegions - 1))];
    utk::ConvexRegion region = u < 0.4   ? parent
                               : u < 0.7 ? utk::RandomSubBox(parent, 0.5, rng)
                                         : fresh[i];
    s.reads.push_back(spec(i % 4 == 3 ? QueryMode::kUtk2 : QueryMode::kUtk1,
                           std::move(region)));
  }
  utk::UpdateTraceOptions writes;
  writes.insert_fraction = 0.5;
  writes.seed = kDataSeed;
  s.ops = utk::MakeUpdateTrace(initial, kMaxSteps * kOpsPerBatch, writes);
  return s;
}

/// Checks the answers served at the current epoch against a fresh Engine
/// built on the live records, with its ids mapped back to live ids.
void CheckAgainstFresh(const utk::LiveEngine& live, const Stream& stream,
                       int64_t first_read,
                       std::array<QueryResult, kReadsPerStep>& served,
                       const RunOptions& opt, RunResult& out) {
  std::vector<int32_t> live_ids;
  const utk::Engine fresh(live.CompactSnapshot(&live_ids));
  for (int j = 0; j < kReadsPerStep; ++j) {
    const int64_t request = first_read + j;
    const QuerySpec& spec = stream.reads[static_cast<size_t>(request)];
    QueryResult& got = served[static_cast<size_t>(j)];
    if (!got.ok) continue;  // already counted as failed
    if (opt.inject_fault && request == 0) InjectFault(got.ids);
    const QueryResult want = fresh.Run(spec);
    if (!want.ok || !SameIds(got.ids, MapIds(want.ids, live_ids))) {
      out.Fail(Where(opt.seed, request, spec) +
               ": served answer differs from a fresh Engine at epoch " +
               std::to_string(live.epoch()));
    } else if (spec.mode == QueryMode::kUtk2) {
      if (auto bad = CheckCells(fresh, got.utk2, got.ids, spec.k, &live_ids))
        out.Fail(Where(opt.seed, request, spec) + ": " + *bad);
    }
  }
}

int OutcomeIndex(const utk::QueryStats& s) {
  return s.cache_hits > 0 ? 0 : s.cache_semantic_hits > 0 ? 1 : 2;
}

/// Phase B: the same stream on a fresh catalog, traced, with a plain
/// LiveEngine (no catalog) behind a second server replaying it in lockstep.
void TraceStream(const Dataset& initial, const Stream& stream, int64_t steps,
                 const RunOptions& opt, Tracer& tracer, RunResult& out) {
  Stack stack;
  if (!CreateStack(stack, initial, opt.work_dir, out)) return;
  std::shared_ptr<utk::LiveEngine> plain;
  const double build_ms = Timed(tracer, "index.LiveEngine", [&] {
    plain = std::make_shared<utk::LiveEngine>(Dataset(initial));
  });
  out.metrics["index.engine_build_s"] = build_ms / 1e3;
  utk::Server mirror(plain);
  utk::CacheAttachment mirror_link(*plain, mirror.cache());

  for (const QuerySpec& spec : stream.warmup) {
    stack.server->Query(spec);
    mirror.Query(spec);
  }
  std::vector<double> by_outcome[3], utk1_ms, apply_ms;
  for (int64_t s = 0; s < steps; ++s) {
    for (int j = 0; j < kReadsPerStep; ++j) {
      const int64_t i = s * kReadsPerStep + j;
      const QuerySpec& spec = stream.reads[static_cast<size_t>(i)];
      tracer.set_request(s * (kReadsPerStep + 1) + j);
      QueryResult r;
      {
        Scope request(tracer, "request");
        const double ms = Timed(tracer, "serve.Server::Query",
                                [&] { r = stack.server->Query(spec); });
        by_outcome[OutcomeIndex(r.stats)].push_back(ms);
        if (spec.mode == QueryMode::kUtk1) utk1_ms.push_back(ms);
      }
      const QueryResult m = mirror.Query(spec);
      if (!r.ok || !m.ok || !SameIds(r.ids, m.ids))
        out.Fail(Where(opt.seed, i, spec) +
                 ": catalog and plain live engine answers differ");
    }
    tracer.set_request(s * (kReadsPerStep + 1) + kReadsPerStep);
    Scope request(tracer, "request");
    Timed(tracer, "update.LiveEngine::ApplyBatch(catalog)",
          [&] { stack.catalog->live().ApplyBatch(stream.Batch(s)); });
    apply_ms.push_back(Timed(tracer, "live.LiveEngine::ApplyBatch", [&] {
      plain->ApplyBatch(stream.Batch(s));
    }));
  }
  tracer.set_request(-1);
  out.metrics["serve.exact_hit_us_p50"] = Quantile(by_outcome[0], 0.5) * 1e3;
  out.metrics["serve.semantic_hit_us_p50"] =
      Quantile(by_outcome[1], 0.5) * 1e3;
  out.metrics["serve.miss_ms_p50"] = Quantile(by_outcome[2], 0.5);
  SetP50P90(out, "live.apply_ms", apply_ms);
  out.metrics["trace.overhead_frac"] =
      Ratio(Quantile(utk1_ms, 0.5), out.metrics["utk1_ms_p50"]) - 1.0;
}

}  // namespace

RunResult RunServeLive(const RunOptions& opt, Tracer& tracer) {
  RunResult out;
  Dataset initial;
  Stack stack;
  std::vector<double> total, gen, create;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.Reset();  // the previous repetition's catalog
    const auto t0 = Clock::now();
    Dataset data;
    {
      Scope span(tracer, "data.Generate");
      data = utk::Generate(utk::Distribution::kIndependent, kN, kDim,
                           kDataSeed);
    }
    const double g = SecondsSince(t0);
    initial = data;  // the update trace is generated against it; untimed
    const auto t1 = Clock::now();
    {
      Scope span(tracer, "storage.Catalog::Create");
      if (!CreateStack(stack, std::move(data), opt.work_dir, out)) return out;
    }
    const double c = SecondsSince(t1);
    total.push_back(g + c);
    gen.push_back(g);
    create.push_back(c);
  }
  out.metrics["setup_s"] = Quantile(total, 0.5);
  out.metrics["data.generate_s"] = Quantile(gen, 0.5);
  out.metrics["storage.catalog_create_s"] = Quantile(create, 0.5);
  const utk::CatalogStats created = stack.catalog->stats();
  out.metrics["storage.segment_bytes_per_row"] =
      Ratio(static_cast<double>(created.segment_bytes),
            static_cast<double>(created.rows));

  const Stream stream = MakeStream(initial, opt.seed);
  utk::LiveEngine& live = stack.catalog->live();

  for (const QuerySpec& spec : stream.warmup) {
    ++out.queries;
    const QueryResult r = stack.server->Query(spec);
    if (!r.ok) out.Fail(Where(opt.seed, -1, spec) + " (warm-up): " + r.error);
  }

  const utk::LiveCounters live0 = live.counters();
  const utk::CacheCounters cache0 = stack.server->cache_counters();

  // Phase A: the timed closed loop.
  std::vector<double> lat[2], update_ms;
  std::array<QueryResult, kReadsPerStep> served;
  double query_s = 0.0, check_s = 0.0;
  int64_t steps = 0, applied_ops = 0;
  const auto start = Clock::now();
  while (SecondsSince(start) - check_s < opt.seconds && steps < kMaxSteps) {
    for (int j = 0; j < kReadsPerStep; ++j) {
      const int64_t i = steps * kReadsPerStep + j;
      const QuerySpec& spec = stream.reads[static_cast<size_t>(i)];
      const auto t0 = Clock::now();
      served[static_cast<size_t>(j)] = stack.server->Query(spec);
      const double dt = SecondsSince(t0);
      query_s += dt;
      lat[spec.mode == QueryMode::kUtk1 ? 0 : 1].push_back(dt * 1e3);
      if (!served[static_cast<size_t>(j)].ok)
        out.Fail(Where(opt.seed, i, spec) + ": " +
                 served[static_cast<size_t>(j)].error);
    }
    if (steps % kCheckEvery == 0) {
      const auto c0 = Clock::now();
      CheckAgainstFresh(live, stream, steps * kReadsPerStep, served, opt, out);
      check_s += SecondsSince(c0);
    }
    const std::span<const UpdateOp> batch = stream.Batch(steps);
    const auto t0 = Clock::now();
    const int applied = live.ApplyBatch(batch);
    update_ms.push_back(SecondsSince(t0) * 1e3);
    applied_ops += applied;
    if (applied != kOpsPerBatch)
      out.Fail("seed=" + std::to_string(opt.seed) + " batch=" +
               std::to_string(steps) + ": applied " + std::to_string(applied) +
               " of " + std::to_string(kOpsPerBatch) + " ops");
    ++steps;
  }
  const double wall = SecondsSince(start) - check_s;
  out.metrics["peak_rss_mb"] = PeakRssMb();
  const int64_t reads = steps * kReadsPerStep;
  out.queries += reads;
  out.batches = steps;
  SetP50P90(out, "utk1_ms", lat[0]);
  SetP50P90(out, "utk2_ms", lat[1]);
  SetP50P90(out, "update_ms", update_ms);
  out.metrics["qps"] = Ratio(static_cast<double>(reads), query_s);
  out.metrics["ops_per_s"] = Ratio(static_cast<double>(reads + steps), wall);

  const utk::LiveCounters live1 = live.counters();
  const utk::CacheCounters cache1 = stack.server->cache_counters();
  const double engine_queries =
      static_cast<double>((live1.pool_queries - live0.pool_queries) +
                          (live1.direct_queries - live0.direct_queries) +
                          (live1.fallback_queries - live0.fallback_queries));
  out.metrics["live.band_rebuilds_per_batch"] =
      Ratio(static_cast<double>(live1.band_rebuilds - live0.band_rebuilds),
            static_cast<double>(steps));
  out.metrics["live.pool_query_frac"] = Ratio(
      static_cast<double>(live1.pool_queries - live0.pool_queries),
      engine_queries);
  out.metrics["serve.hit_ratio"] = Ratio(
      static_cast<double>((cache1.exact_hits - cache0.exact_hits) +
                          (cache1.semantic_hits - cache0.semantic_hits)),
      static_cast<double>(cache1.Requests() - cache0.Requests()));
  out.metrics["serve.invalidated_per_batch"] =
      Ratio(static_cast<double>(cache1.invalidated - cache0.invalidated),
            static_cast<double>(steps));
  const utk::CatalogStats before = stack.catalog->stats();
  if (before.compactions == 0)  // else the WAL no longer holds every op
    out.metrics["storage.wal_bytes_per_op"] =
        Ratio(static_cast<double>(before.wal_bytes),
              static_cast<double>(applied_ops));
  if (auto io = stack.catalog->io_error()) out.Fail("catalog I/O: " + *io);

  // Close, reopen, and compare with what the catalog held before closing.
  std::vector<std::vector<int32_t>> sample;
  for (int j = 0; j < kReopenSample; ++j)
    sample.push_back(live.Run(stream.reads[static_cast<size_t>(j)]).ids);
  const uint64_t epoch = live.epoch();
  const int64_t live_size = live.live_size();
  stack.Close();
  std::string error;
  const auto r0 = Clock::now();
  std::unique_ptr<Catalog> reopened;
  {
    Scope span(tracer, "storage.Catalog::Open");
    reopened = Catalog::Open(stack.dir->path(), Options(), &error);
  }
  out.metrics["recover_ms"] = SecondsSince(r0) * 1e3;
  out.reopens = 1;
  if (reopened == nullptr) {
    out.Fail("seed=" + std::to_string(opt.seed) + " Catalog::Open: " + error);
  } else {
    out.metrics["storage.replayed_ops"] =
        static_cast<double>(reopened->stats().replayed_ops);
    const utk::LiveEngine& back = reopened->live();
    if (back.epoch() != epoch || back.live_size() != live_size)
      out.Fail("seed=" + std::to_string(opt.seed) +
               " reopen: epoch/live count " + std::to_string(back.epoch()) +
               "/" + std::to_string(back.live_size()) + ", expected " +
               std::to_string(epoch) + "/" + std::to_string(live_size));
    for (int j = 0; j < kReopenSample; ++j) {
      const QuerySpec& spec = stream.reads[static_cast<size_t>(j)];
      if (!SameIds(back.Run(spec).ids, sample[static_cast<size_t>(j)]))
        out.Fail(Where(opt.seed, j, spec) +
                 ": reopened catalog answers differ");
    }
  }
  reopened.reset();
  stack.Reset();

  if (tracer.enabled()) TraceStream(initial, stream, steps, opt, tracer, out);
  return out;
}

}  // namespace perfbench
