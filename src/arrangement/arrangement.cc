#include "arrangement/arrangement.h"

#include <algorithm>
#include <cassert>

namespace utk {

namespace {

int64_t BoundBytes(const Halfspace& h) {
  return static_cast<int64_t>(sizeof(Halfspace) + h.a.size() * sizeof(Scalar));
}

int64_t CellBytes(const Cell& c) {
  int64_t bytes = static_cast<int64_t>(sizeof(Cell));
  for (const Halfspace& h : c.bounds) bytes += BoundBytes(h);
  return bytes + static_cast<int64_t>(c.covering.size() * sizeof(int) +
                                      c.interior.size() * sizeof(Scalar));
}

}  // namespace

CellArrangement::CellArrangement(const ConvexRegion& base, QueryStats* stats)
    : stats_(stats) {
  auto ip = FindInteriorPoint(base.constraints(),
                              base.Pivot().value_or(Vec(base.dim(), 0.0)));
  assert(ip.has_value() && ip->radius > 0 && "base region must have interior");
  Cell c;
  c.bounds = base.constraints();
  c.interior = ip->x;
  c.radius = ip->radius;
  bytes_ = CellBytes(c);
  cells_.push_back(std::move(c));
  if (stats_ != nullptr) {
    ++stats_->cells_created;
    ++stats_->lp_calls;
  }
}

CellArrangement::CellArrangement(std::vector<Halfspace> base_bounds,
                                 Vec interior, Scalar radius,
                                 QueryStats* stats)
    : stats_(stats) {
  Cell c;
  c.bounds = std::move(base_bounds);
  c.interior = std::move(interior);
  c.radius = radius;
  bytes_ = CellBytes(c);
  cells_.push_back(std::move(c));
  if (stats_ != nullptr) ++stats_->cells_created;
}

void CellArrangement::Cover(Cell& c, int hs_id) {
  c.covering.push_back(hs_id);
  bytes_ += static_cast<int64_t>(sizeof(int));
  c.frozen = c.Count() >= freeze_threshold_;
}

void CellArrangement::Recentre(Cell& c, InteriorPoint ip) {
  bytes_ += (static_cast<int64_t>(ip.x.size()) -
             static_cast<int64_t>(c.interior.size())) *
            static_cast<int64_t>(sizeof(Scalar));
  c.interior = std::move(ip.x);
  c.radius = ip.radius;
}

void CellArrangement::Insert(int hs_id, const Halfspace& hs) {
  if (stats_ != nullptr) ++stats_->halfspaces_inserted;
  const Scalar norm = Norm(hs.a);
  if (EpsLe(norm, 0.0)) {
    // Degenerate half-space: covers everything or nothing.
    if (EpsGe(hs.b, 0.0)) {
      for (Cell& c : cells_)
        if (!c.frozen) Cover(c, hs_id);
    }
    return;
  }

  const Halfspace complement = hs.Complement();
  const size_t n = cells_.size();
  for (size_t i = 0; i < n; ++i) {
    // Note: Insert may push new cells; only pre-existing cells are visited.
    if (cells_[i].frozen) continue;

    // One Chebyshev solve per side, started from the cell's cached centre.
    // A rejected side with radius in (kEps, kInteriorEps] is a sliver; one
    // no wider than kEps lies within the membership tolerance of the cut.
    bool sliver = false;
    auto side_interior = [&](const Halfspace& h) {
      if (stats_ != nullptr) ++stats_->lp_calls;
      auto ip = FindInteriorPoint(cells_[i].bounds, h, cells_[i].interior);
      // utk-lint: allow(eps-compare) kInteriorEps is the threshold itself:
      // a radius strictly above it is interior (DESIGN.md §4).
      if (ip.has_value() && ip->radius > kInteriorEps) return ip;
      // utk-lint: allow(eps-compare) kEps is the threshold itself: a radius
      // strictly above it is a sliver (DESIGN.md §4).
      if (ip.has_value() && ip->radius > kEps) sliver = true;
      return std::optional<InteriorPoint>{};
    };
    // Keeping one side of a cut that drops a sliver records the cut, so no
    // later split can move the centre back into the sliver (DESIGN.md §4).
    auto bound_if_sliver = [&](const Halfspace& kept) {
      if (!sliver) return;
      cells_[i].bounds.push_back(kept);
      bytes_ += BoundBytes(kept);
    };

    // Fast path: if the cached ball lies entirely on one side of the
    // hyperplane, that side is feasible with the current interior point and
    // only the other side needs an LP.
    const Scalar slack = hs.Slack(cells_[i].interior);
    const Scalar radius = cells_[i].radius;
    std::optional<InteriorPoint> in_ip, out_ip;
    if (slack >= norm * radius) {
      in_ip = InteriorPoint{cells_[i].interior, radius};
      out_ip = side_interior(complement);
    } else if (slack <= -norm * radius) {
      out_ip = InteriorPoint{cells_[i].interior, radius};
      in_ip = side_interior(hs);
    } else {
      in_ip = side_interior(hs);
      out_ip = side_interior(complement);
    }
    const bool inside_feasible = in_ip.has_value();
    const bool outside_feasible = out_ip.has_value();

    if (inside_feasible && outside_feasible) {
      // Split: the existing cell becomes the inside child, a new cell is the
      // outside child.
      Cell outside;
      outside.bounds = cells_[i].bounds;
      outside.bounds.push_back(complement);
      outside.covering = cells_[i].covering;
      outside.interior = std::move(out_ip->x);
      outside.radius = out_ip->radius;
      bytes_ += CellBytes(outside);

      cells_[i].bounds.push_back(hs);
      bytes_ += BoundBytes(hs);
      Cover(cells_[i], hs_id);
      Recentre(cells_[i], std::move(*in_ip));

      cells_.push_back(std::move(outside));
      if (stats_ != nullptr) {
        ++stats_->cells_created;
        stats_->peak_bytes = std::max(stats_->peak_bytes, bytes_);
      }
    } else if (inside_feasible) {
      bound_if_sliver(hs);
      Cover(cells_[i], hs_id);
      Recentre(cells_[i], std::move(*in_ip));
    } else if (outside_feasible) {
      bound_if_sliver(complement);
      Recentre(cells_[i], std::move(*out_ip));
    }
    // Neither side reaching kInteriorEps leaves the cell as it is. One side
    // of any cut keeps a ball of half the cell's radius, so that needs a
    // cell no wider than 2 * kInteriorEps: a near-tie hyperplane through a
    // cell that is itself almost a sliver.
  }
}

int CellArrangement::MinCount() const {
  int best = std::numeric_limits<int>::max();
  for (const Cell& c : cells_) best = std::min(best, c.Count());
  return best;
}

bool CellArrangement::AllFrozen() const {
  for (const Cell& c : cells_)
    if (!c.frozen) return false;
  return true;
}

int CellArrangement::Locate(const Vec& w, Scalar eps) const {
  for (size_t i = 0; i < cells_.size(); ++i) {
    bool ok = true;
    for (const Halfspace& h : cells_[i].bounds) {
      if (!h.Contains(w, eps)) {
        ok = false;
        break;
      }
    }
    if (ok) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace utk
