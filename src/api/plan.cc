#include "api/plan.h"

#include <algorithm>
#include <cstdio>

namespace utk {
namespace {

// Build-time node: a TraceEvent plus its adopted children, kept until the
// whole forest is assembled (PlanNode has no timestamps, and grafting
// worker-thread subtrees needs interval containment).
struct BuildNode {
  obs::TraceEvent e;
  std::vector<BuildNode> kids;

  int64_t start() const { return e.ts_us; }
  int64_t end() const { return e.ts_us + e.dur_us; }
  bool Contains(const BuildNode& o) const {
    return start() <= o.start() && o.end() <= end();
  }
};

PlanNode ToPlanNode(const BuildNode& b) {
  PlanNode n;
  n.op = b.e.name;
  n.actual_ms = static_cast<double>(b.e.dur_us) / 1000.0;
  n.actual_rows = b.e.arg >= 0 ? b.e.arg : -1;
  n.children.reserve(b.kids.size());
  for (const BuildNode& k : b.kids) n.children.push_back(ToPlanNode(k));
  return n;
}

/// Rebuilds one thread's span forest. Events arrive in close order, so a
/// parent always follows its children: every pending node that is deeper
/// and inside the new span's interval becomes its child.
std::vector<BuildNode> BuildForest(std::vector<obs::TraceEvent> events) {
  std::vector<BuildNode> pending;
  for (const obs::TraceEvent& e : events) {
    BuildNode node{e, {}};
    auto claimed = std::stable_partition(
        pending.begin(), pending.end(), [&](const BuildNode& p) {
          return !(p.e.depth > e.depth && node.Contains(p));
        });
    node.kids.assign(std::make_move_iterator(claimed),
                     std::make_move_iterator(pending.end()));
    std::sort(node.kids.begin(), node.kids.end(),
              [](const BuildNode& a, const BuildNode& b) {
                return a.start() < b.start();
              });
    pending.erase(claimed, pending.end());
    pending.push_back(std::move(node));
  }
  return pending;
}

/// Grafts `orphan` under the deepest node of `tree` whose interval contains
/// it (worker-thread subtrees nest inside the fan-out phase that spawned
/// them). Returns false when nothing contains it.
bool Graft(BuildNode* tree, BuildNode&& orphan) {
  if (!tree->Contains(orphan)) return false;
  for (BuildNode& kid : tree->kids)
    if (Graft(&kid, std::move(orphan))) return true;
  tree->kids.push_back(std::move(orphan));
  std::sort(tree->kids.begin(), tree->kids.end(),
            [](const BuildNode& a, const BuildNode& b) {
              return a.start() < b.start();
            });
  return true;
}

void AppendMs(std::string* out, const char* label, double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.3f", label, ms);
  *out += buf;
}

void RenderInto(const PlanNode& node, const std::string& prefix, bool last,
                bool root, std::string* out) {
  if (!root) {
    *out += prefix;
    *out += last ? "└─ " : "├─ ";
  }
  *out += node.op;
  if (!node.detail.empty()) {
    *out += "  (";
    *out += node.detail;
    *out += ")";
  }
  std::string fields;
  if (node.est_rows >= 0)
    fields += "est_rows=" + std::to_string(node.est_rows);
  if (node.actual_rows >= 0) {
    if (!fields.empty()) fields += " ";
    fields += "rows=" + std::to_string(node.actual_rows);
  }
  if (node.actual_ms >= 0) {
    if (!fields.empty()) fields += " ";
    AppendMs(&fields, "ms", node.actual_ms);
  }
  if (!fields.empty()) {
    *out += "  [";
    *out += fields;
    *out += "]";
  }
  *out += "\n";
  const std::string child_prefix =
      root ? "" : prefix + (last ? "   " : "│  ");
  for (size_t i = 0; i < node.children.size(); ++i)
    RenderInto(node.children[i], child_prefix, i + 1 == node.children.size(),
               false, out);
}

/// DFS that finds the first not-yet-claimed reference node named `op`.
const PlanNode* FindByOp(const PlanNode& ref, const std::string& op,
                         std::vector<const PlanNode*>* claimed) {
  if (ref.op == op &&
      std::find(claimed->begin(), claimed->end(), &ref) == claimed->end())
    return &ref;
  for (const PlanNode& kid : ref.children)
    if (const PlanNode* hit = FindByOp(kid, op, claimed)) return hit;
  return nullptr;
}

void AnnotateInto(PlanNode* node, const PlanNode& reference,
                  std::vector<const PlanNode*>* claimed) {
  if (const PlanNode* ref = FindByOp(reference, node->op, claimed)) {
    claimed->push_back(ref);
    node->est_rows = ref->est_rows;
    if (node->detail.empty()) node->detail = ref->detail;
  }
  for (PlanNode& kid : node->children)
    AnnotateInto(&kid, reference, claimed);
}

}  // namespace

double PlanNode::ChildActualMs() const {
  double total = 0.0;
  for (const PlanNode& kid : children)
    if (kid.actual_ms >= 0) total += kid.actual_ms;
  return total;
}

int64_t PlanNode::TreeSize() const {
  int64_t n = 1;
  for (const PlanNode& kid : children) n += kid.TreeSize();
  return n;
}

std::string RenderPlan(const PlanNode& root) {
  std::string out;
  RenderInto(root, "", true, true, &out);
  return out;
}

PlanNode PlanFromTrace(const std::vector<obs::TraceEvent>& events,
                       int64_t t0_us) {
  // Per-thread forests, keyed by dense tid. Snapshot order is per-thread
  // close order with threads concatenated, so splitting by tid preserves
  // the close-order invariant BuildForest depends on.
  std::vector<std::pair<uint32_t, std::vector<obs::TraceEvent>>> by_tid;
  for (const obs::TraceEvent& e : events) {
    if (e.ts_us < t0_us) continue;
    auto it = std::find_if(by_tid.begin(), by_tid.end(),
                           [&](const auto& p) { return p.first == e.tid; });
    if (it == by_tid.end()) {
      by_tid.emplace_back(e.tid, std::vector<obs::TraceEvent>{});
      it = std::prev(by_tid.end());
    }
    it->second.push_back(e);
  }
  std::vector<BuildNode> roots;
  for (auto& [tid, tevents] : by_tid) {
    std::vector<BuildNode> forest = BuildForest(std::move(tevents));
    roots.insert(roots.end(), std::make_move_iterator(forest.begin()),
                 std::make_move_iterator(forest.end()));
  }
  if (roots.empty()) return PlanNode{};

  // The longest top-level span is the query root; everything else (worker
  // threads, sibling top-level spans inside its window) grafts into it by
  // interval containment. Roots outside the window are unrelated queries
  // recorded earlier in the same buffers — dropped.
  auto main_it = std::max_element(roots.begin(), roots.end(),
                                  [](const BuildNode& a, const BuildNode& b) {
                                    return a.e.dur_us < b.e.dur_us;
                                  });
  BuildNode main = std::move(*main_it);
  roots.erase(main_it);
  for (BuildNode& orphan : roots) Graft(&main, std::move(orphan));
  return ToPlanNode(main);
}

void AnnotateEstimates(PlanNode* tree, const PlanNode& reference) {
  std::vector<const PlanNode*> claimed;
  AnnotateInto(tree, reference, &claimed);
}

PlanNode CoalescePlan(const PlanNode& root) {
  PlanNode out = root;
  out.children.clear();

  // Group the children by op, preserving first-occurrence order.
  std::vector<std::pair<std::string, std::vector<const PlanNode*>>> groups;
  for (const PlanNode& kid : root.children) {
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == kid.op; });
    if (it == groups.end()) {
      groups.emplace_back(kid.op, std::vector<const PlanNode*>{});
      it = std::prev(groups.end());
    }
    it->second.push_back(&kid);
  }

  for (const auto& [op, members] : groups) {
    if (members.size() == 1) {
      out.children.push_back(CoalescePlan(*members.front()));
      continue;
    }
    PlanNode merged;
    merged.op = op;
    merged.detail = members.front()->detail;
    if (!merged.detail.empty()) merged.detail += " ";
    merged.detail += "x" + std::to_string(members.size());
    for (const PlanNode* m : members) {
      auto add = [](auto* acc, auto v) {
        if (v < 0) return;
        if (*acc < 0) *acc = 0;
        *acc += v;
      };
      add(&merged.est_rows, m->est_rows);
      add(&merged.actual_rows, m->actual_rows);
      add(&merged.actual_ms, m->actual_ms);
      merged.children.insert(merged.children.end(), m->children.begin(),
                             m->children.end());
    }
    out.children.push_back(CoalescePlan(merged));
  }
  return out;
}

PlanNode AnalyzeWithTrace(const PlanNode& static_plan,
                          const std::function<QueryResult()>& run,
                          QueryResult* result) {
  const bool was_tracing = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  const int64_t t0 = obs::NowMicros();
  QueryResult r = run();
  std::vector<obs::TraceEvent> events = obs::TraceSnapshot();
  obs::SetTracingEnabled(was_tracing);

  PlanNode actual = PlanFromTrace(events, t0);
  if (actual.op.empty()) {
    // Spans compiled out or dropped: the static tree with the measured
    // total is the best ANALYZE available.
    actual = static_plan;
    actual.actual_ms = r.stats.elapsed_ms;
  } else {
    AnnotateEstimates(&actual, static_plan);
  }
  if (result != nullptr) *result = std::move(r);
  return actual;
}

}  // namespace utk
