#include "api/plan.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace utk {
namespace {

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

PlanNode PlanFromTrace(const std::vector<obs::TraceEvent>& events) {
  // Close order puts every span after its children, and the pending nodes
  // deeper than a span when it closes are exactly those children, in order
  // (pending depths never decrease, so they form a suffix).
  std::vector<std::pair<int, PlanNode>> pending;
  for (const obs::TraceEvent& e : events) {
    PlanNode node;
    node.op = e.name;
    node.actual_ms = static_cast<double>(e.dur_us) / 1000.0;
    node.actual_rows = e.arg >= 0 ? e.arg : -1;
    auto kids = std::find_if(pending.begin(), pending.end(),
                             [&](const auto& p) { return p.first > e.depth; });
    for (auto it = kids; it != pending.end(); ++it)
      node.children.push_back(std::move(it->second));
    pending.erase(kids, pending.end());
    pending.emplace_back(e.depth, std::move(node));
  }
  return pending.empty() ? PlanNode{} : std::move(pending.back().second);
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
  // The query runs on this thread, so its spans are the ones this thread
  // records from the mark on, whatever other threads trace meanwhile.
  const obs::TracingHold tracing;
  const int64_t mark = obs::SpanMark();
  QueryResult r = run();
  PlanNode actual = PlanFromTrace(obs::SpansSince(mark));
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
