// probe_refine — the fixed-request refinement probe.
//
// Answers a fixed anti-refine-shaped request stream through Engine::Run and
// prints, per query seed, the refinement counter totals, an FNV-1a digest
// of the answers and one of the answers alone. Two builds whose lines are
// equal took the same LP decisions and gave the same answers, so a refactor
// of the refinement core can be checked without a timing run; a change that
// moves cell centres can still be checked for equal answers by the last
// column.
//
//   probe_refine [seed ...]        (default: seeds 1 2 3 4)
//
// Data: ANTI, n = 10,000, d = 4, data seed 4242. Query seed s gives 200
// UTK1 requests (k = 20, sigma = 5%, QueryBatch seed 2s + 1) interleaved
// with 200 UTK2 requests (k = 10, sigma = 2%, QueryBatch seed 2s + 2). The
// digest covers, in request order, each UTK1 answer's ids and each UTK2
// cell's bound count, witness (%.17g) and top-k. The `answers` digest
// covers, in request order, each UTK1 answer's ids and each UTK2 answer's
// sorted set of distinct top-k sets, which no cell geometry enters. The
// `allocs` column counts the operator new calls made inside Engine::Run for
// the seed's 400 requests; this file replaces the global operator new and
// delete to count them. Allocation-only changes keep every other column and
// move this one. Exits 1 if any request comes back ok=false, 2 on a
// malformed seed.
//
// tests/golden/probe_refine_answers.txt holds seed 1's `answers` column.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "api/engine.h"
#include "data/generator.h"
#include "data/workload.h"

namespace {

// operator new calls while `g_counting` is set (the allocs column).
bool g_counting = false;
int64_t g_allocs = 0;

// Out of line, so the compiler sees no malloc/free pair to mismatch.
[[gnu::noinline]] void* CountedMalloc(std::size_t size) noexcept {
  if (g_counting) ++g_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void Free(void* p) noexcept { std::free(p); }

void* CheckedMalloc(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form but the aligned ones, which nothing here uses. The
// nothrow forms matter under ASan, whose own would otherwise serve
// std::stable_sort's buffer.
void* operator new(std::size_t size) { return CheckedMalloc(size); }
void* operator new[](std::size_t size) { return CheckedMalloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Free(p); }

namespace {

constexpr int kRequests = 200;  // per mode

// Engine::Run with its operator new calls counted.
utk::QueryResult CountedRun(const utk::Engine& engine,
                            const utk::QuerySpec& spec) {
  g_counting = true;
  utk::QueryResult r = engine.Run(spec);
  g_counting = false;
  return r;
}

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

// The distinct top-k sets of a UTK2 answer, each sorted, in sorted order.
std::string TopkSets(const utk::Utk2Result& answer) {
  std::set<std::vector<int32_t>> sets;
  for (const utk::Utk2Cell& cell : answer.cells) {
    std::vector<int32_t> topk = cell.topk;
    std::sort(topk.begin(), topk.end());
    sets.insert(std::move(topk));
  }
  std::string s;
  for (const std::vector<int32_t>& topk : sets) s += Ids(topk);
  return s + ";\n";
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
              "halfspaces_inserted digest answers allocs\n");
  for (uint64_t seed : seeds) {
    const std::vector<utk::ConvexRegion> utk1 =
        utk::QueryBatch(3, 0.05, kRequests, 2 * seed + 1);
    const std::vector<utk::ConvexRegion> utk2 =
        utk::QueryBatch(3, 0.02, kRequests, 2 * seed + 2);
    utk::QueryStats total;
    Digest digest, answers;
    g_allocs = 0;
    for (int i = 0; i < kRequests; ++i) {
      utk::QuerySpec spec;
      spec.k = 20;
      spec.region = utk1[i];
      utk::QueryResult r = CountedRun(engine, spec);
      failed += r.ok ? 0 : 1;
      total += r.stats;
      digest.Add(Ids(r.ids));
      answers.Add(Ids(r.ids));

      spec.mode = utk::QueryMode::kUtk2;
      spec.k = 10;
      spec.region = utk2[i];
      r = CountedRun(engine, spec);
      failed += r.ok ? 0 : 1;
      total += r.stats;
      for (const utk::Utk2Cell& cell : r.utk2.cells) digest.Add(Cell(cell));
      answers.Add(TopkSets(r.utk2));
    }
    std::printf("%" PRIu64 " %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
                " %" PRId64 " %016" PRIx64 " %016" PRIx64 " %" PRId64 "\n",
                seed, total.lp_calls, total.drills, total.verify_calls,
                total.cells_created, total.halfspaces_inserted, digest.h,
                answers.h, g_allocs);
  }
  if (failed > 0) {
    std::fprintf(stderr, "error: %d requests came back ok=false\n", failed);
    return 1;
  }
  return 0;
}
