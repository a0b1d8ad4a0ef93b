// utk_cli — command-line front end for the library.
//
// Subcommands:
//   generate  --dist IND|COR|ANTI|HOTEL|HOUSE|NBA --n N --dim D --seed S
//             --out FILE.csv
//   utk1      --data FILE.csv --k K --box lo1,hi1,lo2,hi2,...   (pref domain)
//             [--algo auto|rsa|jaa|sk|on|naive] [--shards S] [--tiles T]
//             [--partitioner rr|spatial] [--threads N]
//   utk2      --data FILE.csv --k K --box ...  [--algo auto|jaa|sk|on]
//             [--shards S] [--tiles T] [--partitioner rr|spatial]
//   topk      --data FILE.csv --k K --weights w1,w2,...         (full domain)
//   immutable --data FILE.csv --k K --weights w1,w2,...
//   serve     --data FILE.csv [--trace FILE|-] [--gen N --mode utk1|utk2
//             --k K --sigma S --seed SEED] [--cache-entries N] [--cache-mb M]
//             [--threads T] [--shards S] [--tiles T] [--partitioner rr|spatial]
//   updates   --data FILE.csv [--ops N] [--batch B] [--insert-frac F]
//             [--dist IND|COR|ANTI] [--mode utk1|utk2] [--k K] [--sigma S]
//             [--queries Q] [--seed SEED] [--verify 0|1] [--serve 0|1]
//   save      --data FILE.csv --dir DIR [--fsync none|commit|always]
//             [--compact-bytes N]      create a persistent catalog from CSV
//   open      --dir DIR [--ops N --seed S] [--k K --box ...] [--verify 0|1]
//             reopen (segment + WAL replay), optionally update and query
//   compact   --dir DIR                fold the WAL into a fresh segment
//   run       --data FILE.csv [--k K] [--mode utk1|utk2] [--queries N]
//             [--sigma S] [--seed SEED] [--box lo1,hi1,...] [--algo ...]
//             [--threads T] [--shards S] [--tiles T] [--partitioner ...]
//             answer a batch of queries (random boxes unless --box is given)
//   explain   --data FILE.csv --k K --box ...  [--mode utk1|utk2]
//             [--algo ...] [--shards S] [--tiles T] [--analyze]
//             render the plan tree (EXPLAIN); --analyze runs the query under
//             tracing and annotates the tree with actual rows/times
//   history   --file FILE | --stats-dir DIR  [--csv] [--limit N]
//             dump (--csv) or aggregate the persistent query-stats history
//             written by --stats-dir
//   stats     [<subcommand> --flags...]
//             run any other subcommand, then pretty-print the process-wide
//             metric registry (src/obs/) to stdout; bare `stats` prints the
//             (empty) registry and exits
//
// Observability flags, accepted anywhere on the command line for every
// subcommand (src/obs/):
//   --trace-out FILE     enable span tracing; write Chrome trace-event JSON
//                        (load at ui.perfetto.dev) when the command finishes
//   --metrics-out FILE   write the Prometheus text exposition of the metric
//                        registry when the command finishes
//   --slow-ms T          log queries slower than T ms to stderr (spec
//                        fingerprint + stats + top spans)
//   --stats-dir DIR      append one history row per query to
//                        DIR/history.utkh (read back with `history`)
//   --planner-model FILE load calibrated cost-model coefficients (see
//                        tools/calibrate_planner.py) before building engines
//
// All UTK dispatch goes through the QueryEngine interface: the CLI builds
// one engine per dataset (R-tree included) and submits a declarative
// QuerySpec; --algo defaults to auto, letting the engine plan. With
// --shards S and/or --tiles T (> 1) the query runs on the partitioned
// engine (src/dist/), which decomposes it across data shards and region
// tiles and prints the per-shard candidate-pool sizes per tile.
//
// `serve` answers a stream of queries through the src/serve result cache and
// reports the hit-rate. The stream comes from --trace (one query per line:
// `utk1|utk2 K lo1,hi1,lo2,hi2,...`, '#' comments, '-' for stdin) or is a
// synthetic overlapping workload from data/workload.h (--gen count).
//
// `updates` drives the live-update subsystem (src/live/): it loads the data
// into a LiveEngine, applies a deterministic mixed insert/erase trace in
// batches, answers queries between batches (cache-first through a Server
// with epoch invalidation when --serve 1), and with --verify 1 checks every
// answer against a from-scratch Engine on the final catalog.
//
// `save`/`open`/`compact` drive the persistence tier (src/storage/): save
// creates a {segment, WAL, MANIFEST} catalog directory, open reproduces the
// exact engine state from it (replaying the WAL, truncating any torn tail)
// and can apply further logged updates and answer queries, compact folds
// the WAL into a fresh segment. All three print segment/WAL stats.
//
// Examples:
//   utk_cli generate --dist ANTI --n 10000 --dim 4 --out anti.csv
//   utk_cli utk1 --data anti.csv --k 10 --box 0.1,0.2,0.1,0.2,0.1,0.2
//   utk_cli utk2 --data anti.csv --k 5 --box 0.1,0.2,0.1,0.2,0.1,0.2 --algo jaa
//   utk_cli topk --data anti.csv --k 5 --weights 0.3,0.3,0.2,0.2
//   utk_cli serve --data anti.csv --gen 50 --mode utk1 --k 10
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "api/engine.h"
#include "core/extensions.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/realistic.h"
#include "data/workload.h"
#include "dist/partitioned_engine.h"
#include "live/live_engine.h"
#include "obs/history.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "storage/catalog.h"

namespace {

using namespace utk;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc;) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[argv[i] + 2] = argv[i + 1];
      i += 2;
    } else {
      flags[argv[i] + 2] = "1";  // valueless boolean flag (e.g. --analyze)
      i += 1;
    }
  }
  return flags;
}

std::vector<Scalar> ParseList(const std::string& s) {
  std::vector<Scalar> out;
  std::string cur;
  for (char c : s + ",") {
    if (c == ',') {
      if (!cur.empty()) out.push_back(std::atof(cur.c_str()));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: utk_cli <generate|utk1|utk2|topk|immutable|serve|"
               "updates|save|open|compact|run|explain|history|stats> "
               "[--flags]\n"
               "observability: --trace-out FILE --metrics-out FILE "
               "--slow-ms T --stats-dir DIR --planner-model FILE "
               "(any subcommand)\n"
               "see the header of examples/utk_cli.cpp for details\n");
  return 2;
}

Engine EngineOrDie(const std::map<std::string, std::string>& flags) {
  auto it = flags.find("data");
  if (it == flags.end()) {
    std::fprintf(stderr, "error: --data FILE.csv is required\n");
    std::exit(2);
  }
  auto engine = Engine::FromCsvFile(it->second);
  if (!engine.has_value()) {
    std::fprintf(stderr, "error: cannot parse %s\n", it->second.c_str());
    std::exit(1);
  }
  return std::move(*engine);
}

ConvexRegion BoxOrDie(const std::map<std::string, std::string>& flags,
                      int pref_dim) {
  auto it = flags.find("box");
  if (it == flags.end()) {
    std::fprintf(stderr, "error: --box lo1,hi1,... is required\n");
    std::exit(2);
  }
  std::vector<Scalar> v = ParseList(it->second);
  if (static_cast<int>(v.size()) != 2 * pref_dim) {
    std::fprintf(stderr,
                 "error: --box needs %d numbers (lo,hi per preference dim; "
                 "data has %d attributes -> %d preference dims)\n",
                 2 * pref_dim, pref_dim + 1, pref_dim);
    std::exit(2);
  }
  Vec lo(pref_dim), hi(pref_dim);
  for (int i = 0; i < pref_dim; ++i) {
    lo[i] = v[2 * i];
    hi[i] = v[2 * i + 1];
  }
  return ConvexRegion::FromBox(lo, hi);
}

/// --shards/--tiles/--partitioner/--threads -> a DistConfig; exits on an
/// unknown partitioner name. Decomposition is requested when S or T > 1.
DistConfig DistConfigFromFlags(
    const std::map<std::string, std::string>& flags) {
  DistConfig config;
  if (flags.count("shards"))
    config.shards = std::atoi(flags.at("shards").c_str());
  if (flags.count("tiles"))
    config.tiles = std::atoi(flags.at("tiles").c_str());
  if (flags.count("threads"))
    config.threads = std::atoi(flags.at("threads").c_str());
  if (flags.count("partitioner")) {
    auto p = ParsePartitioner(flags.at("partitioner"));
    if (!p.has_value()) {
      std::fprintf(stderr, "error: unknown --partitioner %s (rr|spatial)\n",
                   flags.at("partitioner").c_str());
      std::exit(2);
    }
    config.partitioner = *p;
  }
  return config;
}

bool WantsDist(const DistConfig& config) {
  return config.shards > 1 || config.tiles > 1;
}

/// Per-tile sharded-filter breakdown: shard candidate pools, their union,
/// and the refinement band the pool refiltered into.
void PrintDistDetail(const DistDetail& detail) {
  for (size_t t = 0; t < detail.filter.size(); ++t) {
    const ShardFilterReport& f = detail.filter[t];
    std::fprintf(stderr, "[dist] tile %zu: shard pools", t);
    for (int64_t c : f.shard_candidates)
      std::fprintf(stderr, " %lld", static_cast<long long>(c));
    std::fprintf(stderr, " -> pool %lld -> band %lld (filter critical %.3f ms)\n",
                 static_cast<long long>(f.pool),
                 static_cast<long long>(detail.band_sizes[t]),
                 f.critical_ms);
  }
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  const std::string dist =
      flags.count("dist") ? flags.at("dist") : std::string("IND");
  const int n = flags.count("n") ? std::atoi(flags.at("n").c_str()) : 1000;
  const int dim = flags.count("dim") ? std::atoi(flags.at("dim").c_str()) : 4;
  const uint64_t seed =
      flags.count("seed") ? std::strtoull(flags.at("seed").c_str(), nullptr, 10)
                          : 42;
  Dataset data;
  if (dist == "HOTEL") {
    data = GenerateHotelLike(n, seed);
  } else if (dist == "HOUSE") {
    data = GenerateHouseLike(n, seed);
  } else if (dist == "NBA") {
    data = GenerateNbaLike(n, seed);
  } else {
    data = Generate(ParseDistribution(dist), n, dim, seed);
  }
  if (flags.count("out")) {
    if (!SaveCsvFile(data, flags.at("out"))) {
      std::fprintf(stderr, "error: cannot write %s\n", flags.at("out").c_str());
      return 1;
    }
    std::printf("wrote %zu records (%d attrs) to %s\n", data.size(),
                DataDim(data), flags.at("out").c_str());
  } else {
    SaveCsv(data, std::cout);
  }
  return 0;
}

int CmdUtk(const std::map<std::string, std::string>& flags, bool second) {
  Engine engine = EngineOrDie(flags);
  QuerySpec spec;
  spec.mode = second ? QueryMode::kUtk2 : QueryMode::kUtk1;
  spec.k = flags.count("k") ? std::atoi(flags.at("k").c_str()) : 10;
  spec.region = BoxOrDie(flags, engine.pref_dim());
  if (flags.count("algo")) {
    auto algo = ParseAlgorithm(flags.at("algo"));
    if (!algo.has_value()) {
      std::fprintf(stderr, "error: unknown --algo %s\n",
                   flags.at("algo").c_str());
      return 2;
    }
    spec.algorithm = *algo;
  }
  const DistConfig dist = DistConfigFromFlags(flags);
  QueryResult r;
  if (WantsDist(dist)) {
    PartitionedEngine partitioned(
        std::make_shared<const Engine>(std::move(engine)), dist);
    DistDetail detail;
    r = partitioned.Run(spec, &detail);
    if (r.ok) PrintDistDetail(detail);
  } else {
    r = engine.Run(spec);
  }
  if (!r.ok) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  if (!second) {
    std::printf("UTK1: %zu records (via %s)\n", r.ids.size(),
                AlgorithmName(r.algorithm));
    for (int32_t id : r.ids) std::printf("%d\n", id);
  } else if (!r.per_record.records.empty()) {
    std::printf("UTK2: %lld cells over %zu records (via %s)\n",
                static_cast<long long>(r.per_record.TotalCells()),
                r.ids.size(), AlgorithmName(r.algorithm));
    for (const auto& rec : r.per_record.records)
      std::printf("record %d: %zu cells\n", rec.id, rec.cells.size());
  } else {
    std::printf("UTK2: %zu cells, %lld distinct top-%d sets (via %s)\n",
                r.utk2.cells.size(),
                static_cast<long long>(r.utk2.NumDistinctTopkSets()), spec.k,
                AlgorithmName(r.algorithm));
    for (const Utk2Cell& cell : r.utk2.cells) {
      std::printf("witness");
      for (Scalar w : cell.witness) std::printf(" %.6f", w);
      std::printf(" topk");
      for (int32_t id : cell.topk) std::printf(" %d", id);
      std::printf("\n");
    }
  }
  std::fprintf(stderr, "[stats] %s\n", r.stats.ToString().c_str());
  return 0;
}

/// Parses one trace line `utk1|utk2 K lo1,hi1,...` into a QuerySpec.
/// Returns false (with a message on stderr) on malformed lines.
bool ParseTraceLine(const std::string& line, int pref_dim, QuerySpec* spec) {
  std::istringstream is(line);
  std::string mode, box;
  int k = 0;
  if (!(is >> mode >> k >> box)) {
    std::fprintf(stderr,
                 "error: trace line must be 'utk1|utk2 K lo1,hi1,...', got "
                 "'%s'\n",
                 line.c_str());
    return false;
  }
  if (mode == "utk1") {
    spec->mode = QueryMode::kUtk1;
  } else if (mode == "utk2") {
    spec->mode = QueryMode::kUtk2;
  } else {
    std::fprintf(stderr, "error: trace mode must be utk1|utk2, got %s\n",
                 mode.c_str());
    return false;
  }
  spec->k = k;
  std::vector<Scalar> v = ParseList(box);
  if (static_cast<int>(v.size()) != 2 * pref_dim) {
    std::fprintf(stderr, "error: trace box needs %d numbers, got %zu\n",
                 2 * pref_dim, v.size());
    return false;
  }
  Vec lo(pref_dim), hi(pref_dim);
  for (int i = 0; i < pref_dim; ++i) {
    lo[i] = v[2 * i];
    hi[i] = v[2 * i + 1];
  }
  spec->region = ConvexRegion::FromBox(lo, hi);
  return true;
}

int CmdServe(const std::map<std::string, std::string>& flags) {
  Engine loaded = EngineOrDie(flags);
  const int pref_dim = loaded.pref_dim();

  CacheConfig config;
  if (flags.count("cache-entries"))
    config.max_entries =
        static_cast<std::size_t>(std::atoll(flags.at("cache-entries").c_str()));
  if (flags.count("cache-mb"))
    config.max_bytes =
        static_cast<std::size_t>(std::atoll(flags.at("cache-mb").c_str()))
        << 20;
  // --shards/--tiles back the server with the partitioned engine.
  const DistConfig dist = DistConfigFromFlags(flags);
  std::shared_ptr<const QueryEngine> backend;
  if (WantsDist(dist)) {
    backend = std::make_shared<const PartitionedEngine>(
        std::make_shared<const Engine>(std::move(loaded)), dist);
    std::fprintf(stderr, "[dist] serving with %d shards (%s), %d tiles\n",
                 dist.shards, PartitionerName(dist.partitioner), dist.tiles);
  } else {
    backend = std::make_shared<const Engine>(std::move(loaded));
  }
  Server server(std::move(backend), config);

  std::vector<QuerySpec> specs;
  if (flags.count("trace")) {
    const std::string path = flags.at("trace");
    std::ifstream file;
    if (path != "-") {
      file.open(path);
      if (!file) {
        std::fprintf(stderr, "error: cannot read trace %s\n", path.c_str());
        return 1;
      }
    }
    std::istream& in = path == "-" ? std::cin : file;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      QuerySpec spec;
      if (!ParseTraceLine(line, pref_dim, &spec)) return 2;
      specs.push_back(std::move(spec));
    }
  } else {
    ServeTraceOptions opt;
    opt.pref_dim = pref_dim;
    if (flags.count("sigma")) opt.sigma = std::atof(flags.at("sigma").c_str());
    if (flags.count("seed"))
      opt.seed = std::strtoull(flags.at("seed").c_str(), nullptr, 10);
    const int count =
        flags.count("gen") ? std::atoi(flags.at("gen").c_str()) : 40;
    QuerySpec base;
    base.mode = flags.count("mode") && flags.at("mode") == "utk2"
                    ? QueryMode::kUtk2
                    : QueryMode::kUtk1;
    base.k = flags.count("k") ? std::atoi(flags.at("k").c_str()) : 10;
    ServeTrace trace = MakeServeTrace(count, opt);
    for (ConvexRegion& region : trace.queries) {
      QuerySpec spec = base;
      spec.region = std::move(region);
      specs.push_back(std::move(spec));
    }
  }
  if (specs.empty()) {
    std::fprintf(stderr, "error: empty query trace\n");
    return 2;
  }

  const int threads =
      flags.count("threads") ? std::atoi(flags.at("threads").c_str()) : 1;
  Timer timer;
  BatchQueryResult batch = server.QueryBatch(specs, threads);
  const double total_ms = timer.ElapsedMs();

  for (size_t i = 0; i < batch.results.size(); ++i) {
    const QueryResult& r = batch.results[i];
    if (!r.ok) {
      std::printf("q%zu ERROR %s\n", i, r.error.c_str());
      continue;
    }
    const char* path = r.stats.cache_hits ? "hit" : "miss";
    std::printf("q%zu %s k=%d via=%s out=%zu cache=%s ms=%.3f\n", i,
                QueryModeName(r.mode), specs[i].k, AlgorithmName(r.algorithm),
                r.ids.size(), path, r.stats.elapsed_ms);
  }

  CacheCounters counters = server.cache_counters();
  std::printf(
      "served %zu queries (%d failed) in %.2f ms: %lld exact, %lld miss, "
      "%lld evicted, hit-rate %.2f%%\n",
      specs.size(), batch.failed, total_ms,
      static_cast<long long>(counters.exact_hits),
      static_cast<long long>(counters.misses),
      static_cast<long long>(counters.evictions), 100.0 * counters.HitRate());
  std::fprintf(stderr, "[stats] %s\n", batch.total.ToString().c_str());
  return batch.failed == 0 ? 0 : 1;
}

int CmdUpdates(const std::map<std::string, std::string>& flags) {
  auto intf = [&](const char* name, int fallback) {
    return flags.count(name) ? std::atoi(flags.at(name).c_str()) : fallback;
  };
  Engine loaded = EngineOrDie(flags);
  const int pref_dim = loaded.pref_dim();
  const int ops = intf("ops", 500);
  const int batch = std::max(1, intf("batch", 25));
  const int queries = intf("queries", 3);
  const int k = intf("k", 5);
  const bool verify = intf("verify", 1) != 0;
  const bool use_serve = intf("serve", 1) != 0;
  const uint64_t seed =
      flags.count("seed") ? std::strtoull(flags.at("seed").c_str(), nullptr, 10)
                          : 42;
  const Scalar sigma =
      flags.count("sigma") ? std::atof(flags.at("sigma").c_str()) : 0.1;

  UpdateTraceOptions trace_opt;
  if (flags.count("insert-frac"))
    trace_opt.insert_fraction = std::atof(flags.at("insert-frac").c_str());
  // Fresh inserts follow --dist so an ANTI/COR catalog keeps its joint
  // shape under updates (MakeUpdateTrace defaults to IND otherwise).
  if (flags.count("dist"))
    trace_opt.dist = ParseDistribution(flags.at("dist"));
  trace_opt.seed = seed;
  Dataset initial = loaded.data();
  std::vector<UpdateOp> trace = MakeUpdateTrace(initial, ops, trace_opt);

  auto live = std::make_shared<LiveEngine>(std::move(initial));
  Server server(live, CacheConfig{});
  std::optional<CacheAttachment> link;
  if (use_serve) link.emplace(*live, server.cache());

  QuerySpec base;
  base.mode = flags.count("mode") && flags.at("mode") == "utk2"
                  ? QueryMode::kUtk2
                  : QueryMode::kUtk1;
  base.k = k;
  Rng qrng(seed ^ 0xabcdefull);

  Timer total;
  size_t cursor = 0;
  while (cursor < trace.size()) {
    const size_t n = std::min<size_t>(batch, trace.size() - cursor);
    Timer t;
    live->ApplyBatch(std::span<const UpdateOp>(trace.data() + cursor, n));
    const double update_ms = t.ElapsedMs();
    cursor += n;
    double query_ms = 0.0;
    for (int q = 0; q < queries; ++q) {
      QuerySpec spec = base;
      spec.region = RandomQueryBox(pref_dim, sigma, qrng);
      QueryResult r = use_serve ? server.Query(spec) : live->Run(spec);
      if (!r.ok) {
        std::fprintf(stderr, "error at epoch %llu: %s\n",
                     static_cast<unsigned long long>(live->epoch()),
                     r.error.c_str());
        return 1;
      }
      query_ms += r.stats.elapsed_ms;
    }
    LiveCounters c = live->counters();
    std::printf(
        "epoch %llu: live=%lld  batch %.3f ms, %d queries %.3f ms\n",
        static_cast<unsigned long long>(c.epoch),
        static_cast<long long>(c.live), update_ms, queries, query_ms);
  }

  LiveCounters c = live->counters();
  std::printf(
      "applied %lld inserts / %lld erases in %.2f ms total; %lld direct / "
      "%lld fallback queries\n",
      static_cast<long long>(c.inserts), static_cast<long long>(c.erases),
      total.ElapsedMs(), static_cast<long long>(c.direct_queries),
      static_cast<long long>(c.fallback_queries));
  if (use_serve) {
    CacheCounters cc = server.cache_counters();
    std::printf(
        "cache: %lld exact, %lld miss, %lld invalidated over %lld sweeps, "
        "%lld stale admits refused\n",
        static_cast<long long>(cc.exact_hits),
        static_cast<long long>(cc.misses),
        static_cast<long long>(cc.invalidated),
        static_cast<long long>(cc.invalidation_sweeps),
        static_cast<long long>(cc.stale_rejects));
  }

  if (verify) {
    // Every differential-suite query must match a from-scratch Engine on
    // the final catalog, with compact ids mapped back to live ids.
    std::vector<int32_t> live_ids;
    Engine rebuilt(live->CompactSnapshot(&live_ids));
    int checked = 0;
    for (int q = 0; q < std::max(queries, 5); ++q) {
      QuerySpec spec = base;
      spec.region = RandomQueryBox(pref_dim, sigma, qrng);
      QueryResult want = rebuilt.Run(spec);
      QueryResult got = live->Run(spec);
      if (want.ok != got.ok) {
        std::fprintf(stderr,
                     "VERIFY FAILED: ok-ness diverged (rebuild: %s, live: "
                     "%s)\n",
                     want.ok ? "ok" : want.error.c_str(),
                     got.ok ? "ok" : got.error.c_str());
        return 1;
      }
      if (!want.ok) continue;  // both rejected identically
      std::vector<int32_t> mapped = want.ids;
      for (int32_t& id : mapped) id = live_ids[id];
      if (got.ids != mapped) {
        std::fprintf(stderr, "VERIFY FAILED: live engine diverged from a "
                             "from-scratch rebuild\n");
        return 1;
      }
      ++checked;
    }
    if (checked == 0) {
      std::fprintf(stderr, "VERIFY FAILED: no query ran on both engines\n");
      return 1;
    }
    std::printf("verify: %d queries equal a from-scratch Engine rebuild\n",
                checked);
  }
  return 0;
}

void PrintCatalogStats(const CatalogStats& s) {
  std::printf("catalog: epoch=%llu seqno=%llu rows=%lld live=%lld\n",
              static_cast<unsigned long long>(s.epoch),
              static_cast<unsigned long long>(s.seqno),
              static_cast<long long>(s.rows), static_cast<long long>(s.live));
  std::printf("segment: %s (%llu bytes)\n", s.segment_file.c_str(),
              static_cast<unsigned long long>(s.segment_bytes));
  std::printf("wal:     %s (%llu bytes, %lld batches since segment)\n",
              s.wal_file.c_str(), static_cast<unsigned long long>(s.wal_bytes),
              static_cast<long long>(s.wal_batches));
  if (s.replayed_batches > 0 || s.tail_dropped_bytes > 0)
    std::printf("replay:  %lld batches / %lld ops, %llu torn bytes dropped\n",
                static_cast<long long>(s.replayed_batches),
                static_cast<long long>(s.replayed_ops),
                static_cast<unsigned long long>(s.tail_dropped_bytes));
  if (s.compactions > 0)
    std::printf("compactions this process: %lld\n",
                static_cast<long long>(s.compactions));
}

CatalogOptions CatalogOptionsFromFlags(
    const std::map<std::string, std::string>& flags) {
  CatalogOptions opt;
  if (flags.count("fsync")) {
    const std::string& f = flags.at("fsync");
    if (f == "none") {
      opt.fsync = FsyncPolicy::kNone;
    } else if (f == "commit") {
      opt.fsync = FsyncPolicy::kCommit;
    } else if (f == "always") {
      opt.fsync = FsyncPolicy::kAlways;
    } else {
      std::fprintf(stderr, "error: --fsync must be none|commit|always\n");
      std::exit(2);
    }
  }
  if (flags.count("compact-bytes"))
    opt.compact_wal_bytes = static_cast<uint64_t>(
        std::strtoull(flags.at("compact-bytes").c_str(), nullptr, 10));
  return opt;
}

const std::string& DirOrDie(const std::map<std::string, std::string>& flags) {
  auto it = flags.find("dir");
  if (it == flags.end()) {
    std::fprintf(stderr, "error: --dir DIR is required\n");
    std::exit(2);
  }
  return it->second;
}

int CmdSave(const std::map<std::string, std::string>& flags) {
  auto it = flags.find("data");
  if (it == flags.end()) {
    std::fprintf(stderr, "error: --data FILE.csv is required\n");
    return 2;
  }
  std::string error;
  auto data = LoadCsvFile(it->second, &error);
  if (!data.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const size_t n = data->size();
  auto cat = Catalog::Create(DirOrDie(flags), std::move(*data),
                             CatalogOptionsFromFlags(flags), &error);
  if (cat == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("saved %zu records to %s\n", n, cat->dir().c_str());
  PrintCatalogStats(cat->stats());
  return 0;
}

int CmdOpen(const std::map<std::string, std::string>& flags) {
  std::string error;
  auto cat = Catalog::Open(DirOrDie(flags), CatalogOptionsFromFlags(flags),
                           &error);
  if (cat == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  PrintCatalogStats(cat->stats());
  LiveEngine& live = cat->live();

  const int ops =
      flags.count("ops") ? std::atoi(flags.at("ops").c_str()) : 0;
  if (ops > 0) {
    // A logged random insert/erase mix against the recovered catalog: the
    // next `open` replays these from the WAL.
    const uint64_t seed =
        flags.count("seed")
            ? std::strtoull(flags.at("seed").c_str(), nullptr, 10)
            : 42;
    Rng rng(seed);
    Dataset fresh = Generate(Distribution::kIndependent, ops, live.dim(),
                             seed ^ 0x5eedull);
    int inserts = 0, erases = 0;
    for (int i = 0; i < ops; ++i) {
      if (rng.UniformInt(0, 1) == 0) {
        Record rec = fresh[i];
        rec.id = -1;
        live.Insert(std::move(rec));
        ++inserts;
      } else {
        const int32_t limit = static_cast<int32_t>(live.data().size());
        for (int probe = 0; probe < 64; ++probe) {
          const int32_t id = rng.UniformInt(0, limit - 1);
          if (live.IsLive(id)) {
            live.Erase(id);
            ++erases;
            break;
          }
        }
      }
    }
    if (auto err = cat->io_error()) {
      std::fprintf(stderr, "error: WAL append failed: %s\n", err->c_str());
      return 1;
    }
    std::printf("applied %d inserts / %d erases (now epoch %llu)\n", inserts,
                erases, static_cast<unsigned long long>(live.epoch()));
    PrintCatalogStats(cat->stats());
  }

  if (flags.count("box")) {
    QuerySpec spec;
    spec.mode = QueryMode::kUtk1;
    spec.k = flags.count("k") ? std::atoi(flags.at("k").c_str()) : 10;
    spec.region = BoxOrDie(flags, live.pref_dim());
    QueryResult r = live.Run(spec);
    if (!r.ok) {
      std::fprintf(stderr, "error: %s\n", r.error.c_str());
      return 1;
    }
    std::printf("UTK1: %zu records (via %s)\n", r.ids.size(),
                AlgorithmName(r.algorithm));
    for (int32_t id : r.ids) std::printf("%d\n", id);
    std::fprintf(stderr, "[stats] %s\n", r.stats.ToString().c_str());
  }

  if (flags.count("verify") && std::atoi(flags.at("verify").c_str()) != 0) {
    // The recovered engine must equal a from-scratch Engine on its own
    // compacted catalog — the same check the updates command runs.
    std::vector<int32_t> live_ids;
    Engine rebuilt(live.CompactSnapshot(&live_ids));
    Rng qrng(7);
    for (int q = 0; q < 5; ++q) {
      QuerySpec spec;
      spec.mode = QueryMode::kUtk1;
      spec.k = 5;
      spec.region = RandomQueryBox(live.pref_dim(), 0.1, qrng);
      QueryResult want = rebuilt.Run(spec);
      QueryResult got = live.Run(spec);
      if (want.ok != got.ok) {
        std::fprintf(stderr, "VERIFY FAILED: ok-ness diverged\n");
        return 1;
      }
      if (!want.ok) continue;
      std::vector<int32_t> mapped = want.ids;
      for (int32_t& id : mapped) id = live_ids[id];
      if (got.ids != mapped) {
        std::fprintf(stderr, "VERIFY FAILED: recovered catalog diverged "
                             "from a from-scratch rebuild\n");
        return 1;
      }
    }
    std::printf("verify: recovered catalog equals a from-scratch rebuild\n");
  }
  return 0;
}

int CmdCompact(const std::map<std::string, std::string>& flags) {
  std::string error;
  auto cat = Catalog::Open(DirOrDie(flags), CatalogOptionsFromFlags(flags),
                           &error);
  if (cat == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  CatalogStats before = cat->stats();
  if (!cat->Compact(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  CatalogStats after = cat->stats();
  // Batches in the WAL = those replayed at open + those appended since.
  std::printf("folded %lld WAL batches (%llu bytes) into %s\n",
              static_cast<long long>(before.wal_batches +
                                     before.replayed_batches),
              static_cast<unsigned long long>(before.wal_bytes),
              after.segment_file.c_str());
  PrintCatalogStats(after);
  return 0;
}

Vec WeightsOrDie(const std::map<std::string, std::string>& flags, int dim) {
  if (!flags.count("weights")) {
    std::fprintf(stderr, "error: --weights w1,...,w%d is required\n", dim);
    std::exit(2);
  }
  std::vector<Scalar> w = ParseList(flags.at("weights"));
  if (static_cast<int>(w.size()) != dim) {
    std::fprintf(stderr, "error: expected %d weights\n", dim);
    std::exit(2);
  }
  Scalar sum = 0;
  for (Scalar v : w) sum += v;
  Vec reduced(dim - 1);
  for (int i = 0; i < dim - 1; ++i) reduced[i] = w[i] / sum;
  return reduced;
}

int CmdTopk(const std::map<std::string, std::string>& flags) {
  Engine engine = EngineOrDie(flags);
  const int k = flags.count("k") ? std::atoi(flags.at("k").c_str()) : 10;
  Vec w = WeightsOrDie(flags, engine.dim());
  for (int32_t id : engine.TopK(w, k)) std::printf("%d\n", id);
  return 0;
}

int CmdImmutable(const std::map<std::string, std::string>& flags) {
  Engine engine = EngineOrDie(flags);
  const int k = flags.count("k") ? std::atoi(flags.at("k").c_str()) : 10;
  Vec w = WeightsOrDie(flags, engine.dim());
  auto res = ImmutableRegion(engine.data(), w, k);
  std::printf("top-%d:", k);
  for (int32_t id : res.topk) std::printf(" %d", id);
  std::printf("\nimmutable region: %zu half-space constraints\n",
              res.region.constraints().size());
  for (const Halfspace& h : res.region.constraints()) {
    std::printf("  ");
    for (Scalar a : h.a) std::printf("%+.6f ", a);
    std::printf("<= %+.6f\n", h.b);
  }
  return 0;
}

/// Batch query driver for observability captures: answers --queries random
/// boxes (or one --box) through Engine::RunBatch / the partitioned engine,
/// exercising the full filter -> refine span tree per query.
int CmdRun(const std::map<std::string, std::string>& flags) {
  Engine loaded = [&flags] {
    UTK_SPAN("cli.load");
    return EngineOrDie(flags);
  }();
  const int pref_dim = loaded.pref_dim();

  QuerySpec base;
  base.mode = flags.count("mode") && flags.at("mode") == "utk2"
                  ? QueryMode::kUtk2
                  : QueryMode::kUtk1;
  base.k = flags.count("k") ? std::atoi(flags.at("k").c_str()) : 10;
  if (flags.count("algo")) {
    auto algo = ParseAlgorithm(flags.at("algo"));
    if (!algo.has_value()) {
      std::fprintf(stderr, "error: unknown --algo %s\n",
                   flags.at("algo").c_str());
      return 2;
    }
    base.algorithm = *algo;
  }

  std::vector<QuerySpec> specs;
  if (flags.count("box")) {
    QuerySpec spec = base;
    spec.region = BoxOrDie(flags, pref_dim);
    specs.push_back(std::move(spec));
  } else {
    const int count =
        flags.count("queries") ? std::atoi(flags.at("queries").c_str()) : 8;
    const Scalar sigma =
        flags.count("sigma") ? std::atof(flags.at("sigma").c_str()) : 0.1;
    const uint64_t seed =
        flags.count("seed")
            ? std::strtoull(flags.at("seed").c_str(), nullptr, 10)
            : 42;
    Rng rng(seed);
    for (int q = 0; q < count; ++q) {
      QuerySpec spec = base;
      spec.region = RandomQueryBox(pref_dim, sigma, rng);
      specs.push_back(std::move(spec));
    }
  }

  const int threads =
      flags.count("threads") ? std::atoi(flags.at("threads").c_str()) : 1;
  const DistConfig dist = DistConfigFromFlags(flags);
  Timer timer;
  BatchQueryResult batch;
  if (WantsDist(dist)) {
    PartitionedEngine partitioned(
        std::make_shared<const Engine>(std::move(loaded)), dist);
    batch.results.reserve(specs.size());
    for (const QuerySpec& spec : specs) {
      QueryResult r = partitioned.Run(spec);
      if (!r.ok) ++batch.failed;
      batch.total += r.stats;
      batch.results.push_back(std::move(r));
    }
  } else {
    batch = loaded.RunBatch(specs, threads);
  }
  const double total_ms = timer.ElapsedMs();

  for (size_t i = 0; i < batch.results.size(); ++i) {
    const QueryResult& r = batch.results[i];
    if (!r.ok) {
      std::printf("q%zu ERROR %s\n", i, r.error.c_str());
      continue;
    }
    std::printf("q%zu %s k=%d via=%s out=%zu ms=%.3f\n", i,
                QueryModeName(r.mode), specs[i].k, AlgorithmName(r.algorithm),
                r.ids.size(), r.stats.elapsed_ms);
  }
  std::printf("ran %zu queries (%d failed) in %.2f ms\n", specs.size(),
              batch.failed, total_ms);
  std::fprintf(stderr, "[stats] %s\n", batch.total.ToString().c_str());
  return batch.failed == 0 ? 0 : 1;
}

/// EXPLAIN / EXPLAIN ANALYZE: renders the engine's plan tree for one query.
/// With --analyze the query actually runs under tracing and the same tree
/// comes back annotated with per-operator actual rows/times.
int CmdExplain(const std::map<std::string, std::string>& flags) {
  Engine loaded = EngineOrDie(flags);
  const int pref_dim = loaded.pref_dim();

  QuerySpec spec;
  spec.mode = flags.count("mode") && flags.at("mode") == "utk2"
                  ? QueryMode::kUtk2
                  : QueryMode::kUtk1;
  spec.k = flags.count("k") ? std::atoi(flags.at("k").c_str()) : 10;
  spec.region = BoxOrDie(flags, pref_dim);
  if (flags.count("algo")) {
    auto algo = ParseAlgorithm(flags.at("algo"));
    if (!algo.has_value()) {
      std::fprintf(stderr, "error: unknown --algo %s\n",
                   flags.at("algo").c_str());
      return 2;
    }
    spec.algorithm = *algo;
  }

  const DistConfig dist = DistConfigFromFlags(flags);
  std::shared_ptr<const QueryEngine> engine;
  if (WantsDist(dist)) {
    engine = std::make_shared<const PartitionedEngine>(
        std::make_shared<const Engine>(std::move(loaded)), dist);
  } else {
    engine = std::make_shared<const Engine>(std::move(loaded));
  }

  const bool analyze = flags.count("analyze") && flags.at("analyze") != "0";
  if (!analyze) {
    std::printf("%s", RenderPlan(engine->Explain(spec)).c_str());
    return 0;
  }
  QueryResult r;
  const PlanNode tree = engine->ExplainAnalyze(spec, &r);
  // One node per recorded span is too much terminal for a human: roll
  // same-op siblings (per-candidate refinement spans) into aggregates.
  std::printf("%s", RenderPlan(CoalescePlan(tree)).c_str());
  if (!r.ok) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  std::fprintf(stderr, "[stats] %s\n", r.stats.ToString().c_str());
  return 0;
}

/// Resolves the history file the other flags point at: --file wins, else
/// --stats-dir DIR means DIR/history.utkh (the path engines append to when
/// the global --stats-dir flag is up).
std::string HistoryPathOrDie(const std::map<std::string, std::string>& flags) {
  if (flags.count("file")) return flags.at("file");
  if (flags.count("stats-dir")) return flags.at("stats-dir") + "/history.utkh";
  std::fprintf(stderr, "error: history needs --file FILE or --stats-dir DIR\n");
  std::exit(2);
}

/// Dumps (--csv) or aggregates the persistent query-stats history.
int CmdHistory(const std::map<std::string, std::string>& flags) {
  const std::string path = HistoryPathOrDie(flags);
  std::string error;
  std::optional<obs::HistoryReplay> replay = obs::ReadHistory(path, &error);
  if (!replay.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const std::vector<obs::HistoryRecord>& recs = replay->records;

  if (flags.count("csv")) {
    std::printf(
        "ts_us,fingerprint,mode,k,n,pref_dim,region_width,ran_algorithm,"
        "planned_algorithm,plan_reason,%s\n",
        QueryStats::CsvHeader().c_str());
    for (const obs::HistoryRecord& r : recs) {
      std::printf("%lld,%s,%s,%d,%lld,%d,%.9g,%s,%s,%s,%s\n",
                  static_cast<long long>(r.ts_us), r.fingerprint.c_str(),
                  QueryModeName(static_cast<QueryMode>(r.mode)), r.k,
                  static_cast<long long>(r.n), r.pref_dim, r.region_width,
                  AlgorithmName(static_cast<Algorithm>(r.ran_algorithm)),
                  AlgorithmName(static_cast<Algorithm>(r.planned_algorithm)),
                  PlanReasonName(static_cast<PlanReason>(r.plan_reason)),
                  r.stats_csv.c_str());
    }
    return 0;
  }

  std::printf("history %s: %zu rows (%llu clean bytes, %llu dropped)\n",
              path.c_str(), recs.size(),
              static_cast<unsigned long long>(replay->valid_bytes),
              static_cast<unsigned long long>(replay->dropped_bytes));
  // Aggregate per (mode, ran algorithm, plan reason).
  struct Agg {
    int64_t count = 0;
    double total_ms = 0;
    double max_ms = 0;
  };
  std::map<std::string, Agg> groups;
  for (const obs::HistoryRecord& r : recs) {
    std::string key =
        std::string(QueryModeName(static_cast<QueryMode>(r.mode))) + "/" +
        AlgorithmName(static_cast<Algorithm>(r.ran_algorithm)) + "/" +
        PlanReasonName(static_cast<PlanReason>(r.plan_reason));
    auto stats = QueryStats::FromCsvRow(r.stats_csv);
    Agg& a = groups[key];
    ++a.count;
    if (stats.has_value()) {
      a.total_ms += stats->elapsed_ms;
      a.max_ms = std::max(a.max_ms, stats->elapsed_ms);
    }
  }
  for (const auto& [key, a] : groups) {
    std::printf("  %-32s count=%-6lld mean_ms=%-10.3f max_ms=%.3f\n",
                key.c_str(), static_cast<long long>(a.count),
                a.count > 0 ? a.total_ms / static_cast<double>(a.count) : 0.0,
                a.max_ms);
  }
  const int limit =
      flags.count("limit") ? std::atoi(flags.at("limit").c_str()) : 10;
  const size_t first = recs.size() > static_cast<size_t>(std::max(limit, 0))
                           ? recs.size() - static_cast<size_t>(limit)
                           : 0;
  if (first < recs.size()) std::printf("last %zu:\n", recs.size() - first);
  for (size_t i = first; i < recs.size(); ++i) {
    const obs::HistoryRecord& r = recs[i];
    auto stats = QueryStats::FromCsvRow(r.stats_csv);
    std::printf("  %s k=%-3d n=%-8lld via=%-5s reason=%-18s ms=%.3f",
                r.fingerprint.c_str(), r.k, static_cast<long long>(r.n),
                AlgorithmName(static_cast<Algorithm>(r.ran_algorithm)),
                PlanReasonName(static_cast<PlanReason>(r.plan_reason)),
                stats.has_value() ? stats->elapsed_ms : 0.0);
    if (!r.top_spans.empty())
      std::printf(" top=%s:%.3f", r.top_spans[0].first.c_str(),
                  r.top_spans[0].second);
    std::printf("\n");
  }
  return 0;
}

/// Dispatches one subcommand. `stats` recurses: it runs the subcommand that
/// follows it on the command line, then pretty-prints the metric registry.
int Dispatch(const std::string& cmd, int argc, char** argv) {
  auto flags = ParseFlags(argc, argv);
  if (cmd == "generate") return CmdGenerate(flags);
  if (cmd == "utk1") return CmdUtk(flags, false);
  if (cmd == "utk2") return CmdUtk(flags, true);
  if (cmd == "topk") return CmdTopk(flags);
  if (cmd == "immutable") return CmdImmutable(flags);
  if (cmd == "serve") return CmdServe(flags);
  if (cmd == "updates") return CmdUpdates(flags);
  if (cmd == "save") return CmdSave(flags);
  if (cmd == "open") return CmdOpen(flags);
  if (cmd == "compact") return CmdCompact(flags);
  if (cmd == "run") return CmdRun(flags);
  if (cmd == "explain") return CmdExplain(flags);
  if (cmd == "history") return CmdHistory(flags);
  if (cmd == "stats") {
    int rc = 0;
    if (argc >= 3 && std::strncmp(argv[2], "--", 2) != 0) {
      if (std::string(argv[2]) == "stats") return Usage();  // no stats stats
      rc = Dispatch(argv[2], argc - 1, argv + 1);
    }
    std::printf("%s", obs::MetricRegistry::Global().PrettyText().c_str());
    return rc;
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();

  // Observability flags may ride on any subcommand, at any position (the
  // per-command ParseFlags also sees them; commands ignore what they don't
  // know). Tracing / slow-query logging / the history sink / the planner
  // model must all be up before dispatch (engines capture the cost model at
  // construction).
  std::string trace_out, metrics_out, stats_dir, planner_model;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0) trace_out = argv[i + 1];
    if (std::strcmp(argv[i], "--metrics-out") == 0) metrics_out = argv[i + 1];
    if (std::strcmp(argv[i], "--stats-dir") == 0) stats_dir = argv[i + 1];
    if (std::strcmp(argv[i], "--planner-model") == 0)
      planner_model = argv[i + 1];
    if (std::strcmp(argv[i], "--slow-ms") == 0)
      utk::obs::SetSlowQueryThresholdMs(std::atof(argv[i + 1]));
  }
  if (!trace_out.empty()) utk::obs::SetTracingEnabled(true);
  if (!planner_model.empty()) {
    std::string error;
    auto model = utk::CostModel::LoadFile(planner_model, &error);
    if (!model.has_value()) {
      std::fprintf(stderr, "error: --planner-model %s: %s\n",
                   planner_model.c_str(), error.c_str());
      return 2;
    }
    utk::SetDefaultCostModel(
        std::make_shared<const utk::CostModel>(std::move(*model)));
  }
  std::shared_ptr<utk::obs::HistoryWriter> history;
  if (!stats_dir.empty() && std::string(argv[1]) != "history") {
    ::mkdir(stats_dir.c_str(), 0755);  // EEXIST is fine; Open reports others
    std::string error;
    history = utk::obs::HistoryWriter::Open(stats_dir + "/history.utkh",
                                            utk::obs::kHistoryDefaultMaxBytes,
                                            &error);
    if (history == nullptr) {
      std::fprintf(stderr, "error: --stats-dir %s: %s\n", stats_dir.c_str(),
                   error.c_str());
      return 2;
    }
    utk::obs::SetQueryHistory(history);
  }

  const int rc = Dispatch(argv[1], argc, argv);

  if (history != nullptr) {
    utk::obs::SetQueryHistory(nullptr);
    std::fprintf(stderr, "[obs] appended %lld history rows to %s\n",
                 static_cast<long long>(history->records()),
                 history->path().c_str());
    if (!history->ok())
      std::fprintf(stderr, "[obs] history writer failed: %s\n",
                   history->last_error().c_str());
  }

  if (!trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
      return rc != 0 ? rc : 1;
    }
    out << utk::obs::TraceJson();
    std::fprintf(stderr, "[obs] wrote %zu trace events to %s",
                 utk::obs::TraceEventCount(), trace_out.c_str());
    if (int64_t dropped = utk::obs::TraceDroppedCount())
      std::fprintf(stderr, " (%lld dropped past the buffer cap)",
                   static_cast<long long>(dropped));
    std::fprintf(stderr, "\n");
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_out.c_str());
      return rc != 0 ? rc : 1;
    }
    out << utk::obs::MetricRegistry::Global().PrometheusText();
    std::fprintf(stderr, "[obs] wrote metrics to %s\n", metrics_out.c_str());
  }
  return rc;
}
