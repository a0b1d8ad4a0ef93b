// Persistence-tier benchmark (src/storage/): WAL append throughput per
// fsync policy and WAL replay rate. Informational — no CI gate reads it.
//
// Env knobs (bench_common.h): UTK_BENCH_SCALE (dataset size multiplier),
// UTK_BENCH_JSON_DIR (JSON report emission).
#include "bench_common.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "data/workload.h"
#include "live/live_engine.h"
#include "storage/wal.h"

namespace utk {
namespace bench {
namespace {

std::string TmpDir() {
  const char* t = std::getenv("TMPDIR");
  return t != nullptr ? std::string(t) : std::string("/tmp");
}

/// WAL append throughput: single-op committed batches (the worst case for
/// framing + fsync overhead). Arg selects the fsync policy.
void WalAppendThroughput(benchmark::State& state) {
  const FsyncPolicy policy = static_cast<FsyncPolicy>(state.range(0));
  Dataset recs = Generate(Distribution::kIndependent, 1024, 3, 4242);
  const std::string path = TmpDir() + "/utk_bench_append.wal";
  std::string error;
  auto wal = WalWriter::Create(path, 0, policy, &error);
  if (wal == nullptr) {
    std::fprintf(stderr, "bench: %s\n", error.c_str());
    std::exit(1);
  }
  uint64_t epoch = 0;
  size_t cursor = 0;
  for (auto _ : state) {
    UpdateOp op;
    op.kind = UpdateKind::kInsert;
    op.record = recs[cursor++ % recs.size()];
    op.id = op.record.id;
    if (!wal->Append({&op, 1}, ++epoch, &error)) {
      std::fprintf(stderr, "bench: %s\n", error.c_str());
      std::exit(1);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["wal_MB"] =
      static_cast<double>(wal->bytes()) / (1024.0 * 1024.0);
  wal.reset();
  std::remove(path.c_str());
}
BENCHMARK(WalAppendThroughput)
    ->Arg(static_cast<int>(FsyncPolicy::kNone))
    ->Arg(static_cast<int>(FsyncPolicy::kCommit))
    ->Arg(static_cast<int>(FsyncPolicy::kAlways))
    ->Unit(benchmark::kMicrosecond);

/// WAL replay rate: parse + CRC-verify a WAL of 4096 single-op batches.
/// Items processed = ops replayed, so the rate reads as ops/sec.
void WalReplayRate(benchmark::State& state) {
  const int ops = 4096;
  Dataset initial = Generate(Distribution::kIndependent, 2000, 3, 4242);
  UpdateTraceOptions topt;
  topt.seed = 7;
  std::vector<UpdateOp> trace = MakeUpdateTrace(initial, ops, topt);
  // Stamp the ids a LiveEngine would assign so the frames are realistic.
  LiveEngine live(std::move(initial));
  const std::string path = TmpDir() + "/utk_bench_replay.wal";
  std::string error;
  {
    auto wal = WalWriter::Create(path, live.epoch(), FsyncPolicy::kNone,
                                 &error);
    if (wal == nullptr) {
      std::fprintf(stderr, "bench: %s\n", error.c_str());
      std::exit(1);
    }
    live.AttachLog(wal.get());
    for (const UpdateOp& op : trace) live.ApplyBatch({&op, 1});
    live.DetachLog(wal.get());
  }
  int64_t replayed = 0;
  for (auto _ : state) {
    auto replay = ReadWal(path, &error);
    if (!replay.has_value()) {
      std::fprintf(stderr, "bench: %s\n", error.c_str());
      std::exit(1);
    }
    replayed = 0;
    for (const auto& batch : replay->batches)
      replayed += static_cast<int64_t>(batch.size());
    benchmark::DoNotOptimize(replay);
  }
  state.SetItemsProcessed(state.iterations() * replayed);
  state.counters["batches"] = static_cast<double>(replayed);
  std::remove(path.c_str());
}
BENCHMARK(WalReplayRate)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace utk

UTK_BENCH_MAIN()
