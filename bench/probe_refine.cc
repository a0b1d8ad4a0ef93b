// probe_refine — the fixed-request refinement probe.
//
// Answers a fixed anti-refine-shaped request stream through Engine::Run and
// prints, per query seed, the refinement counter totals and an FNV-1a digest
// of the answers. Two builds whose lines are equal took the same LP
// decisions and gave the same answers, so a refactor of the refinement core
// can be checked without a timing run.
//
//   probe_refine [seed ...]        (default: seeds 1 2 3 4)
//
// Data: ANTI, n = 10,000, d = 4, data seed 4242. Query seed s gives 200
// UTK1 requests (k = 20, sigma = 5%, QueryBatch seed 2s + 1) interleaved
// with 200 UTK2 requests (k = 10, sigma = 2%, QueryBatch seed 2s + 2). The
// digest covers, in request order, each UTK1 answer's ids and each UTK2
// cell's bound count, witness (%.17g) and top-k. Exits 1 if any request
// comes back ok=false, 2 on a malformed seed.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/engine.h"
#include "data/generator.h"
#include "data/workload.h"

namespace {

constexpr int kRequests = 200;  // per mode

// FNV-1a, 64-bit, over everything appended.
struct Digest {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  }
};

std::string Ids(const std::vector<int32_t>& ids) {
  std::string s;
  for (int32_t id : ids) s += std::to_string(id) + ",";
  return s + "\n";
}

std::string Cell(const utk::Utk2Cell& cell) {
  std::string s = std::to_string(cell.bounds.size()) + " ";
  char buf[32];
  for (utk::Scalar x : cell.witness) {
    std::snprintf(buf, sizeof(buf), "%.17g,", x);
    s += buf;
  }
  return s + " " + Ids(cell.topk);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<uint64_t> seeds;
  for (int i = 1; i < argc; ++i) {
    char* end = nullptr;
    const unsigned long long s = std::strtoull(argv[i], &end, 10);
    if (end == argv[i] || *end != '\0') {
      std::fprintf(stderr, "error: seed '%s' is not a number\n", argv[i]);
      return 2;
    }
    seeds.push_back(s);
  }
  if (seeds.empty()) seeds = {1, 2, 3, 4};

  const utk::Engine engine(
      utk::Generate(utk::Distribution::kAnticorrelated, 10000, 4, 4242));
  int failed = 0;
  std::printf("seed lp_calls drills verify_calls cells_created "
              "halfspaces_inserted digest\n");
  for (uint64_t seed : seeds) {
    const std::vector<utk::ConvexRegion> utk1 =
        utk::QueryBatch(3, 0.05, kRequests, 2 * seed + 1);
    const std::vector<utk::ConvexRegion> utk2 =
        utk::QueryBatch(3, 0.02, kRequests, 2 * seed + 2);
    utk::QueryStats total;
    Digest digest;
    for (int i = 0; i < kRequests; ++i) {
      utk::QuerySpec spec;
      spec.k = 20;
      spec.region = utk1[i];
      utk::QueryResult r = engine.Run(spec);
      failed += r.ok ? 0 : 1;
      total += r.stats;
      digest.Add(Ids(r.ids));

      spec.mode = utk::QueryMode::kUtk2;
      spec.k = 10;
      spec.region = utk2[i];
      r = engine.Run(spec);
      failed += r.ok ? 0 : 1;
      total += r.stats;
      for (const utk::Utk2Cell& cell : r.utk2.cells) digest.Add(Cell(cell));
    }
    std::printf("%" PRIu64 " %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
                " %" PRId64 " %016" PRIx64 "\n",
                seed, total.lp_calls, total.drills, total.verify_calls,
                total.cells_created, total.halfspaces_inserted, digest.h);
  }
  if (failed > 0) {
    std::fprintf(stderr, "error: %d requests came back ok=false\n", failed);
    return 1;
  }
  return 0;
}
