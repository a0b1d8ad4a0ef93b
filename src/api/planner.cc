#include "api/planner.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/annotations.h"
#include "obs/history.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace utk {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON reader, just enough for the calibration schema (objects,
// arrays, numbers, strings). Hand-rolled because the toolchain bakes in no
// JSON library and the model file is machine-written by
// tools/calibrate_planner.py — strictness beats generality here.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum Kind { kNull, kNumber, kString, kArray, kObject } kind = kNull;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* Get(const std::string& key) const {
    for (const auto& [k, v] : fields)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  std::optional<JsonValue> Parse(std::string* error) {
    auto v = ParseValue();
    SkipWs();
    if (!v || pos_ != s_.size()) {
      if (error != nullptr)
        *error = "JSON parse error at byte " + std::to_string(pos_);
      return std::nullopt;
    }
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  bool Eat(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<std::string> ParseString() {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != '"') return std::nullopt;
    ++pos_;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char esc = s_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: out += esc; break;  // \" \\ \/ and anything exotic
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= s_.size()) return std::nullopt;  // unterminated
    ++pos_;
    return out;
  }

  std::optional<JsonValue> ParseValue() {
    SkipWs();
    if (pos_ >= s_.size()) return std::nullopt;
    char c = s_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      auto str = ParseString();
      if (!str) return std::nullopt;
      JsonValue v;
      v.kind = JsonValue::kString;
      v.str = std::move(*str);
      return v;
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      const char* begin = s_.data() + pos_;
      char* end = nullptr;
      double num = std::strtod(begin, &end);
      if (end == begin) return std::nullopt;
      pos_ += static_cast<size_t>(end - begin);
      JsonValue v;
      v.kind = JsonValue::kNumber;
      v.number = num;
      return v;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{};
    }
    return std::nullopt;  // true/false unused by the schema
  }

  std::optional<JsonValue> ParseArray() {
    if (!Eat('[')) return std::nullopt;
    JsonValue v;
    v.kind = JsonValue::kArray;
    SkipWs();
    if (Eat(']')) return v;
    while (true) {
      auto item = ParseValue();
      if (!item) return std::nullopt;
      v.items.push_back(std::move(*item));
      if (Eat(']')) return v;
      if (!Eat(',')) return std::nullopt;
    }
  }

  std::optional<JsonValue> ParseObject() {
    if (!Eat('{')) return std::nullopt;
    JsonValue v;
    v.kind = JsonValue::kObject;
    SkipWs();
    if (Eat('}')) return v;
    while (true) {
      auto key = ParseString();
      if (!key || !Eat(':')) return std::nullopt;
      auto val = ParseValue();
      if (!val) return std::nullopt;
      v.fields.emplace_back(std::move(*key), std::move(*val));
      if (Eat('}')) return v;
      if (!Eat(',')) return std::nullopt;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

/// The model's naive-oracle cap is wider than the heuristic's (the model
/// may know naive wins beyond n=48) but still hard-bounded: LP enumeration
/// cost explodes past these regardless of calibration quality.
constexpr int64_t kModelNaiveMaxN = 512;
constexpr int kModelNaiveMaxPrefDim = 4;

}  // namespace

const char* PlanReasonName(PlanReason reason) {
  switch (reason) {
    case PlanReason::kNone: return "none";
    case PlanReason::kExplicit: return "explicit";
    case PlanReason::kHeuristicSmallN: return "heuristic-small-n";
    case PlanReason::kHeuristicDefault: return "heuristic-default";
    case PlanReason::kCostModel: return "cost-model";
    case PlanReason::kCostModelFallback: return "cost-model-fallback";
  }
  return "?";
}

int64_t EstimateBandSize(int64_t n, int k, int pref_dim) {
  // The classic k-skyband expectation for uniform data: k * ln(n)^(d-1)
  // records survive the filter. Clamped to [k, n].
  const double log_n = std::log(static_cast<double>(n) + 1.0);
  double est = static_cast<double>(k) *
               std::pow(log_n, static_cast<double>(pref_dim - 1));
  est = std::min(est, static_cast<double>(n));
  est = std::max(est, static_cast<double>(std::min<int64_t>(k, n)));
  return static_cast<int64_t>(est);
}

std::array<double, kPlannerFeatures> PlannerFeatures(int64_t n, int k,
                                                     int pref_dim,
                                                     double region_width) {
  const double band = static_cast<double>(EstimateBandSize(n, k, pref_dim));
  std::array<double, kPlannerFeatures> f{};
  f[0] = 1.0;
  f[1] = static_cast<double>(n) / 1000.0;
  f[2] = band / 1000.0;
  f[3] = f[2] * static_cast<double>(k);
  f[4] = f[2] * f[2] * region_width;
  return f;
}

double RegionWidth(const ConvexRegion& region) {
  if (region.is_box()) {
    const Vec& lo = region.box_lo();
    const Vec& hi = region.box_hi();
    if (lo.empty()) return 0.0;
    double sum = 0.0;
    for (size_t i = 0; i < lo.size(); ++i)
      sum += static_cast<double>(hi[i] - lo[i]);
    return sum / static_cast<double>(lo.size());
  }
  // General convex region: more constraints means a tighter region. This is
  // a coarse monotone proxy, good enough for a single model feature.
  return 1.0 / (1.0 + static_cast<double>(region.constraints().size()));
}

bool AlgorithmEligible(Algorithm algo, QueryMode mode, int64_t n,
                       int pref_dim) {
  switch (algo) {
    case Algorithm::kAuto:
      return false;
    case Algorithm::kRsa:
      return mode == QueryMode::kUtk1;
    case Algorithm::kJaa:
    case Algorithm::kBaselineSk:
    case Algorithm::kBaselineOn:
      return true;
    case Algorithm::kNaive:
      return mode == QueryMode::kUtk1 && n <= kModelNaiveMaxN &&
             pref_dim <= kModelNaiveMaxPrefDim;
  }
  return false;
}

std::optional<CostModel> CostModel::FromJson(const std::string& text,
                                             std::string* error) {
  auto root = JsonParser(text).Parse(error);
  if (!root) return std::nullopt;
  auto fail = [&](const std::string& why) -> std::optional<CostModel> {
    if (error != nullptr) *error = "planner model: " + why;
    return std::nullopt;
  };
  if (root->kind != JsonValue::kObject) return fail("top level not an object");

  const JsonValue* version = root->Get("version");
  if (version == nullptr || version->kind != JsonValue::kNumber ||
      static_cast<int>(version->number) != 1)
    return fail("missing or unsupported \"version\" (want 1)");

  CostModel m;

  const JsonValue* envelope = root->Get("envelope");
  if (envelope == nullptr || envelope->kind != JsonValue::kObject)
    return fail("missing \"envelope\" object");
  auto range = [&](const char* key, double* lo, double* hi) {
    const JsonValue* r = envelope->Get(key);
    if (r == nullptr || r->kind != JsonValue::kArray || r->items.size() != 2 ||
        r->items[0].kind != JsonValue::kNumber ||
        r->items[1].kind != JsonValue::kNumber)
      return false;
    *lo = r->items[0].number;
    *hi = r->items[1].number;
    return *lo <= *hi;
  };
  double n_lo, n_hi, k_lo, k_hi, d_lo, d_hi;
  if (!range("n", &n_lo, &n_hi) || !range("k", &k_lo, &k_hi) ||
      !range("d", &d_lo, &d_hi))
    return fail("\"envelope\" needs n/k/d as [lo, hi] number pairs");
  m.n_min_ = static_cast<int64_t>(n_lo);
  m.n_max_ = static_cast<int64_t>(n_hi);
  m.k_min_ = static_cast<int>(k_lo);
  m.k_max_ = static_cast<int>(k_hi);
  m.d_min_ = static_cast<int>(d_lo);
  m.d_max_ = static_cast<int>(d_hi);

  const JsonValue* algos = root->Get("algorithms");
  if (algos == nullptr || algos->kind != JsonValue::kObject ||
      algos->fields.empty())
    return fail("missing or empty \"algorithms\" object");
  for (const auto& [name, coeffs] : algos->fields) {
    std::optional<Algorithm> algo = ParseAlgorithm(name);
    if (!algo || *algo == Algorithm::kAuto)
      return fail("unknown algorithm \"" + name + "\"");
    if (coeffs.kind != JsonValue::kArray ||
        coeffs.items.size() != kPlannerFeatures)
      return fail("\"" + name + "\" needs exactly " +
                  std::to_string(kPlannerFeatures) + " coefficients");
    std::array<double, kPlannerFeatures> c{};
    for (int i = 0; i < kPlannerFeatures; ++i) {
      if (coeffs.items[i].kind != JsonValue::kNumber ||
          !std::isfinite(coeffs.items[i].number))
        return fail("\"" + name + "\" coefficient " + std::to_string(i) +
                    " is not a finite number");
      c[static_cast<size_t>(i)] = coeffs.items[i].number;
    }
    m.coeffs_[static_cast<int>(*algo)] = c;
  }
  return m;
}

std::optional<CostModel> CostModel::LoadFile(const std::string& path,
                                             std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) {
    if (error != nullptr) *error = "cannot open planner model " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return FromJson(ss.str(), error);
}

bool CostModel::InEnvelope(int64_t n, int k, int pref_dim) const {
  return n >= n_min_ && n <= n_max_ && k >= k_min_ && k <= k_max_ &&
         pref_dim >= d_min_ && pref_dim <= d_max_;
}

double CostModel::EstimateMs(Algorithm algo, int64_t n, int k, int pref_dim,
                             double region_width) const {
  auto it = coeffs_.find(static_cast<int>(algo));
  if (it == coeffs_.end()) return -1.0;
  const auto f = PlannerFeatures(n, k, pref_dim, region_width);
  double est = 0.0;
  for (int i = 0; i < kPlannerFeatures; ++i)
    est += it->second[static_cast<size_t>(i)] * f[static_cast<size_t>(i)];
  // A linear fit can go slightly negative near the origin; a cost is not.
  return std::max(est, 0.0);
}

std::optional<PlanDecision> CostModel::Choose(QueryMode mode, int64_t n,
                                              int k, int pref_dim,
                                              double region_width) const {
  if (!InEnvelope(n, k, pref_dim)) return std::nullopt;
  Algorithm best = Algorithm::kAuto, second = Algorithm::kAuto;
  double best_ms = -1.0, second_ms = -1.0;
  for (const auto& [raw, coeffs] : coeffs_) {
    (void)coeffs;
    const Algorithm algo = static_cast<Algorithm>(raw);
    if (!AlgorithmEligible(algo, mode, n, pref_dim)) continue;
    const double est = EstimateMs(algo, n, k, pref_dim, region_width);
    if (best == Algorithm::kAuto || est < best_ms) {
      second = best;
      second_ms = best_ms;
      best = algo;
      best_ms = est;
    } else if (second == Algorithm::kAuto || est < second_ms) {
      second = algo;
      second_ms = est;
    }
  }
  if (best == Algorithm::kAuto) return std::nullopt;
  PlanDecision d;
  d.algorithm = best;
  d.reason = PlanReason::kCostModel;
  d.est_ms = best_ms;
  d.runner_up = second;
  d.runner_up_ms = second_ms;
  return d;
}

PlanDecision DecidePlan(const CostModel* model, const QuerySpec& spec,
                        int64_t n, int pref_dim) {
  if (spec.algorithm != Algorithm::kAuto) {
    PlanDecision d;
    d.algorithm = spec.algorithm;
    d.reason = PlanReason::kExplicit;
    if (model != nullptr)
      d.est_ms = model->EstimateMs(spec.algorithm, n, spec.k, pref_dim,
                                   RegionWidth(spec.region));
    return d;
  }
  if (model != nullptr) {
    if (auto d = model->Choose(spec.mode, n, spec.k, pref_dim,
                               RegionWidth(spec.region)))
      return *d;
  }
  // Heuristic fallback — the pre-calibration planner, verbatim.
  PlanDecision d;
  d.algorithm = ChooseAlgorithm(spec.mode, n, pref_dim);
  d.reason = model != nullptr ? PlanReason::kCostModelFallback
             : d.algorithm == Algorithm::kNaive
                 ? PlanReason::kHeuristicSmallN
                 : PlanReason::kHeuristicDefault;
  return d;
}

std::vector<PlanNode> AlgorithmPlanChildren(Algorithm algo, QueryMode mode,
                                            int64_t n, int k, int pref_dim) {
  const int64_t band = EstimateBandSize(n, k, pref_dim);
  auto node = [](const char* op, int64_t est_rows) {
    PlanNode p;
    p.op = op;
    p.est_rows = est_rows;
    return p;
  };
  std::vector<PlanNode> kids;
  switch (algo) {
    case Algorithm::kAuto:
      break;  // unresolved plans have no operator structure
    case Algorithm::kRsa:
      kids.push_back(node("filter.rskyband", band));
      kids.push_back(node("rsa.refine", band));
      break;
    case Algorithm::kJaa:
      kids.push_back(node("filter.rskyband", band));
      kids.push_back(node("jaa.refine", band));
      break;
    case Algorithm::kBaselineSk:
    case Algorithm::kBaselineOn: {
      kids.push_back(node(algo == Algorithm::kBaselineSk ? "filter.skyband"
                                                         : "filter.onion",
                          band));
      PlanNode refine = node("baseline.refine", band);
      refine.children.push_back(node("kspr.decide", band));
      refine.detail = mode == QueryMode::kUtk2 ? "per-record cells" : "";
      kids.push_back(std::move(refine));
      break;
    }
    case Algorithm::kNaive:
      kids.push_back(node("naive.enumerate", n));
      break;
  }
  return kids;
}

void NotePlanOutcome(const PlanDecision& decision, double actual_ms) {
  if (decision.reason != PlanReason::kCostModel) return;
  static obs::Counter& model_decisions =
      obs::MetricRegistry::Global().GetCounter(
          "utk_planner_model_decisions_total");
  model_decisions.Add();
  if (decision.runner_up_ms >= 0 && actual_ms > decision.runner_up_ms) {
    static obs::Counter& mispredicts =
        obs::MetricRegistry::Global().GetCounter(
            "utk_planner_mispredict_total");
    mispredicts.Add();
  }
}

std::string PlanDetail(const PlanDecision& d, int k, int64_t n) {
  std::string out = "algo=";
  out += AlgorithmName(d.algorithm);
  out += " reason=";
  out += PlanReasonName(d.reason);
  out += " k=" + std::to_string(k);
  out += " n=" + std::to_string(n);
  return out;
}

namespace {
Mutex g_model_mu;
std::shared_ptr<const CostModel> g_model UTK_GUARDED_BY(g_model_mu);
bool g_model_env_checked UTK_GUARDED_BY(g_model_mu) = false;
}  // namespace

void SetDefaultCostModel(std::shared_ptr<const CostModel> model) {
  MutexLock lock(g_model_mu);
  g_model = std::move(model);
  g_model_env_checked = true;  // an explicit set overrides the env lookup
}

std::shared_ptr<const CostModel> DefaultCostModel() {
  MutexLock lock(g_model_mu);
  if (!g_model_env_checked) {
    g_model_env_checked = true;
    if (const char* path = std::getenv("UTK_PLANNER_MODEL")) {
      if (auto m = CostModel::LoadFile(path))
        g_model = std::make_shared<const CostModel>(std::move(*m));
    }
  }
  return g_model;
}

// ---------------------------------------------------------------------------
// History glue.
// ---------------------------------------------------------------------------

namespace {
thread_local int t_history_depth = 0;
}  // namespace

QueryHistoryScope::QueryHistoryScope() {
  owner_ = t_history_depth == 0;
  ++t_history_depth;
  if (owner_) t0_us_ = obs::NowMicros();
}

QueryHistoryScope::~QueryHistoryScope() { --t_history_depth; }

void QueryHistoryScope::Record(const QuerySpec& spec,
                               const QueryResult& result, int64_t n,
                               int pref_dim) const {
  if (!owner_ || !result.ok) return;
  std::shared_ptr<obs::HistoryWriter> sink = obs::QueryHistory();
  if (sink == nullptr) return;

  obs::HistoryRecord rec;
  rec.ts_us = obs::NowMicros();
  rec.fingerprint = SpecFingerprint(spec);
  rec.mode = static_cast<uint8_t>(spec.mode);
  rec.k = spec.k;
  rec.n = n;
  rec.pref_dim = pref_dim;
  rec.region_width = RegionWidth(spec.region);
  rec.ran_algorithm = static_cast<uint8_t>(result.algorithm);
  rec.planned_algorithm = static_cast<uint8_t>(result.stats.planned_algorithm);
  rec.plan_reason = static_cast<uint8_t>(result.stats.plan_reason);
  rec.stats_csv = result.stats.CsvRow();

  // Top-span rollup: per-name duration totals within this query's window.
  // Only available when tracing is on; an empty rollup is fine.
  if (obs::TracingEnabled()) {
    std::vector<std::pair<std::string, double>> totals;
    for (const obs::TraceEvent& e : obs::TraceSnapshot()) {
      if (e.ts_us < t0_us_) continue;
      const double ms = static_cast<double>(e.dur_us) / 1000.0;
      auto it = std::find_if(totals.begin(), totals.end(), [&](const auto& p) {
        return p.first == e.name;
      });
      if (it == totals.end())
        totals.emplace_back(e.name, ms);
      else
        it->second += ms;
    }
    std::sort(totals.begin(), totals.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    if (totals.size() > 16) totals.resize(16);
    rec.top_spans = std::move(totals);
  }

  sink->Append(rec);
}

}  // namespace utk
