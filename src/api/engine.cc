#include "api/engine.h"

#include <memory>
#include <utility>

#include "core/baseline.h"
#include "core/jaa.h"
#include "core/naive.h"
#include "core/rsa.h"
#include "core/topk.h"
#include "data/io.h"

namespace utk {

Engine::Engine(Dataset data)
    : QueryEngine("engine.run"),
      data_(std::move(data)),
      tree_(RTree::BulkLoad(data_)),
      cols_(data_) {}

std::optional<Engine> Engine::FromCsvFile(const std::string& path) {
  std::optional<Dataset> data = LoadCsvFile(path);
  if (!data.has_value() || data->empty()) return std::nullopt;
  return Engine(std::move(*data));
}

QueryResult Engine::Execute(const QuerySpec& spec,
                            const PlanDecision& decision) const {
  const Algorithm algo = decision.algorithm;
  if (algo == Algorithm::kRsa || algo == Algorithm::kJaa)
    return RunRSkyband(data_, tree_, &cols_, spec, algo);
  QueryResult r;
  r.ok = true;
  r.mode = spec.mode;
  r.algorithm = algo;
  if (algo == Algorithm::kNaive) {
    Timer timer;
    r.ids = NaiveUtk1(data_, spec.region, spec.k);
    r.stats.candidates = size();
    r.stats.elapsed_ms = timer.ElapsedMs();
    return r;
  }
  Baseline b(algo == Algorithm::kBaselineSk ? BaselineFilter::kSkyband
                                            : BaselineFilter::kOnion);
  if (spec.mode == QueryMode::kUtk1) {
    Utk1Result res = b.RunUtk1(data_, tree_, spec.region, spec.k, &cols_);
    r.ids = std::move(res.ids);
    r.stats = res.stats;
  } else {
    r.per_record = b.RunUtk2(data_, tree_, spec.region, spec.k, &cols_);
    r.ids = r.per_record.AllRecords();
    r.stats = r.per_record.stats;
  }
  return r;
}

std::vector<int32_t> Engine::TopK(const Vec& w, int k) const {
  return TopKRTree(data_, tree_, w, k, nullptr, &cols_);
}

QueryResult RunRSkyband(const Dataset& data, const RTree& tree,
                        const ColumnStore* cols, const QuerySpec& spec,
                        Algorithm algo) {
  QueryResult r;
  r.ok = true;
  r.mode = spec.mode;
  r.algorithm = algo;
  Rsa::Options opt;
  opt.use_drill = spec.use_drill;
  opt.use_lemma1 = spec.use_lemma1;
  opt.wave_cap = spec.wave_cap;
  if (algo == Algorithm::kRsa) {
    Utk1Result res = Rsa(opt).Run(data, tree, spec.region, spec.k, cols);
    r.ids = std::move(res.ids);
    r.stats = res.stats;
  } else {
    r.utk2 = Jaa(opt).Run(data, tree, spec.region, spec.k, cols);
    r.ids = r.utk2.AllRecords();
    r.stats = r.utk2.stats;
  }
  return r;
}

Dataset CompactRecords(const Dataset& data, std::span<const char> alive,
                       std::vector<int32_t>* stable_ids) {
  Dataset compact;
  if (stable_ids != nullptr) stable_ids->clear();
  for (size_t i = 0; i < data.size(); ++i) {
    if (!alive[i]) continue;
    Record r = data[i];
    r.id = static_cast<int32_t>(compact.size());
    compact.push_back(std::move(r));
    if (stable_ids != nullptr) stable_ids->push_back(static_cast<int32_t>(i));
  }
  return compact;
}

QueryResult CompactFallback::Execute(uint64_t epoch, const Dataset& data,
                                     std::span<const char> alive,
                                     const QuerySpec& spec,
                                     const PlanDecision& decision) const {
  std::shared_ptr<const Snapshot> snap;
  {
    MutexLock lock(mu_);
    if (snapshot_ == nullptr || epoch_ != epoch) {
      std::vector<int32_t> stable_ids;
      Dataset compact = CompactRecords(data, alive, &stable_ids);
      snapshot_ = std::make_shared<const Snapshot>(
          Snapshot{std::move(stable_ids), Engine(std::move(compact))});
      epoch_ = epoch;
    }
    snap = snapshot_;
  }
  QueryResult r = snap->engine.Execute(spec, decision);
  const std::vector<int32_t>& ids = snap->stable_ids;
  auto map_ids = [&ids](std::vector<int32_t>* v) {
    for (int32_t& id : *v) id = ids[id];
  };
  map_ids(&r.ids);
  for (Utk2Cell& cell : r.utk2.cells) map_ids(&cell.topk);
  for (auto& rec : r.per_record.records) rec.id = ids[rec.id];
  return r;
}

}  // namespace utk
