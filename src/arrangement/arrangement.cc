#include "arrangement/arrangement.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace utk {

namespace {

// A clipped vertex within this distance of a cut lies on it: it is kept,
// and the cut's bound is tight there. Every vertex stays within it of the
// true cell, far inside the kEps / 2 margin of the miss test.
constexpr Scalar kVertexTol = 1e-11;

// The most dimensions whose box corners fit in kMaxCellVertices.
constexpr int kMaxVertexDim =
    std::bit_width(static_cast<unsigned>(kMaxCellVertices)) - 1;

// Bits in a vertex's tight-bound mask.
constexpr int kMaskBits = 64;

int64_t VertexBytes(const Cell& c) {
  return static_cast<int64_t>(c.verts.size() * sizeof(Scalar) +
                              c.tight.size() * sizeof(uint64_t));
}

int64_t CellBytes(const Cell& c) {
  return static_cast<int64_t>(sizeof(Cell)) + c.bounds.Bytes() +
         VertexBytes(c) +
         static_cast<int64_t>(c.covering.size() * sizeof(int) +
                              c.interior.size() * sizeof(Scalar));
}

// Signed distance of vertex `v` into row i of `rows`: Slack(v) / ||a||.
Scalar Reach(const HalfspaceRows& rows, int i, const Scalar* v) {
  const Scalar* a = rows.a(i);
  Scalar dot = 0.0;
  for (int j = 0; j < rows.dim(); ++j) dot += a[j] * v[j];
  return (rows.b(i) - dot) / rows.norm(i);
}

// Scratch for one clipped vertex list.
struct ClipBuffer {
  Scalar verts[kMaxCellVertices * kMaxVertexDim];
  uint64_t tight[kMaxCellVertices];
};

// Clips cell `c`'s vertex list to one side of a cut that becomes bound `m`;
// `sign * dist[v]` is vertex v's signed distance into that side. Each vertex
// within kVertexTol of the side is kept, tight on m when within kVertexTol
// of the cut. Each pair of a vertex strictly in and one strictly out whose
// masks share at least dim - 1 bounds adds the point where their segment
// crosses the cut, tight on the shared bounds and m. Every edge's endpoints
// share the dim - 1 bounds that define it, so every new vertex is found;
// any extra point lies on a segment of the cell. Returns the number of
// vertices written to `out`, or -1 when m has no mask bit or the list
// would pass kMaxCellVertices.
int ClipVertices(const Cell& c, const Scalar* dist, Scalar sign, int m,
                 ClipBuffer* out) {
  if (m >= kMaskBits) return -1;
  const int nv = c.NumVertices();
  const int dim = static_cast<int>(c.interior.size());
  const Scalar* verts = c.verts.data();
  const uint64_t bit = uint64_t{1} << m;
  int in[kMaxCellVertices], out_side[kMaxCellVertices];
  int n_in = 0, n_out = 0, n = 0;
  for (int v = 0; v < nv; ++v) {
    const Scalar d = sign * dist[v];
    if (EpsLt(d, 0.0, kVertexTol)) {
      out_side[n_out++] = v;
      continue;
    }
    const bool on_cut = !EpsGt(d, 0.0, kVertexTol);
    if (!on_cut) in[n_in++] = v;
    std::copy_n(verts + v * dim, dim, out->verts + n * dim);
    out->tight[n++] = on_cut ? c.tight[v] | bit : c.tight[v];
  }
  for (int a = 0; a < n_in; ++a) {
    const int u = in[a];
    for (int b = 0; b < n_out; ++b) {
      const int w = out_side[b];
      const uint64_t shared = c.tight[u] & c.tight[w];
      if (std::popcount(shared) < dim - 1) continue;
      if (n == kMaxCellVertices) return -1;
      const Scalar t = dist[u] / (dist[u] - dist[w]);
      const Scalar* pu = verts + u * dim;
      const Scalar* pw = verts + w * dim;
      for (int j = 0; j < dim; ++j)
        out->verts[n * dim + j] = pu[j] + t * (pw[j] - pu[j]);
      out->tight[n++] = shared | bit;
    }
  }
  return n;
}

// The centroid c of the n vertices in `buf` and r, the distance from c to
// the nearest of `bounds` and row s of `cut`. r is measured against the
// rows, not the vertices, so the ball (c, r) lies in the polytope they
// bound whatever the vertices' rounding; r is negative when c falls
// outside.
InteriorPoint VertexBall(const HalfspaceRows& bounds, const HalfspaceRows& cut,
                         int s, const ClipBuffer& buf, int n, int dim) {
  InteriorPoint ball{Vec(dim, 0.0), std::numeric_limits<Scalar>::infinity()};
  for (int v = 0; v < n; ++v)
    for (int j = 0; j < dim; ++j) ball.x[j] += buf.verts[v * dim + j];
  for (Scalar& x : ball.x) x /= n;
  auto reach = [&](const HalfspaceRows& rows, int i) {
    if (EpsLe(rows.norm(i), 0.0)) return;  // a zero row bounds nothing
    ball.radius = std::min(ball.radius, Reach(rows, i, ball.x.data()));
  };
  for (int i = 0; i < bounds.size(); ++i) reach(bounds, i);
  reach(cut, s);
  return ball;
}

// True iff rows 2i and 2i+1 of `bounds` are w_i <= hi_i and -w_i <= -lo_i
// for every i < dim, the layout ConvexRegion::FromBox writes.
bool LeadsWithBox(const HalfspaceRows& bounds, int dim) {
  if (bounds.size() < 2 * dim) return false;
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) {
      const Scalar unit = i == j ? 1.0 : 0.0;
      if (!EpsEq(bounds.a(2 * i)[j], unit, 0.0) ||
          !EpsEq(bounds.a(2 * i + 1)[j], -unit, 0.0))
        return false;
    }
  }
  return true;
}

}  // namespace

Cell BaseCell(const ConvexRegion& region, QueryStats* stats) {
  Cell c;
  c.bounds = HalfspaceRows(region.constraints());
  if (stats != nullptr) ++stats->lp_calls;
  auto ip = FindInteriorPoint(region.constraints(),
                              region.Pivot().value_or(Vec(region.dim(), 0.0)));
  assert(ip.has_value() && ip->radius > 0 && "base region must have interior");
  c.interior = std::move(ip->x);
  c.radius = ip->radius;

  const int dim = region.dim();
  if (dim > kMaxVertexDim || !LeadsWithBox(c.bounds, dim)) return c;
  // Corner `corner` takes hi_i (row 2i tight) where its bit i is set, else
  // lo_i (row 2i + 1 tight).
  const int corners = 1 << dim;
  c.verts.resize(static_cast<size_t>(corners * dim));
  c.tight.assign(corners, 0);
  for (int corner = 0; corner < corners; ++corner) {
    for (int i = 0; i < dim; ++i) {
      const bool hi = (corner >> i) & 1;
      c.verts[corner * dim + i] =
          hi ? c.bounds.b(2 * i) : -c.bounds.b(2 * i + 1);
      c.tight[corner] |= uint64_t{1} << (hi ? 2 * i : 2 * i + 1);
    }
  }
  // Further rows, such as the weight simplex, clip the corners.
  Scalar dist[kMaxCellVertices];
  ClipBuffer buf;
  for (int j = 2 * dim; j < c.bounds.size(); ++j) {
    if (EpsLe(c.bounds.norm(j), 0.0)) continue;  // a zero row cuts nothing
    for (int v = 0; v < c.NumVertices(); ++v)
      dist[v] = Reach(c.bounds, j, &c.verts[v * dim]);
    const int n = ClipVertices(c, dist, 1.0, j, &buf);
    if (n <= 0) {
      c.verts.clear();
      c.tight.clear();
      return c;
    }
    c.verts.assign(buf.verts, buf.verts + n * dim);
    c.tight.assign(buf.tight, buf.tight + n);
  }
  return c;
}

CellArrangement::CellArrangement(const ConvexRegion& base, QueryStats* stats)
    : CellArrangement(BaseCell(base, stats), stats) {}

CellArrangement::CellArrangement(const Cell& zone, QueryStats* stats)
    : stats_(stats) {
  // Lists come from BaseCell and clips, which keep within the scratch sizes.
  assert(zone.NumVertices() <= kMaxCellVertices);
  assert(!zone.HasVertices() ||
         static_cast<int>(zone.interior.size()) <= kMaxVertexDim);
  Cell c;
  c.bounds = zone.bounds;
  c.interior = zone.interior;
  c.radius = zone.radius;
  c.verts = zone.verts;
  c.tight = zone.tight;
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

void CellArrangement::SetVertices(Cell& c, const Scalar* verts,
                                  const uint64_t* tight, int n) {
  bytes_ -= VertexBytes(c);
  if (n <= 0) {
    c.verts.clear();
    c.tight.clear();
  } else {
    c.verts.assign(verts, verts + n * c.interior.size());
    c.tight.assign(tight, tight + n);
  }
  bytes_ += VertexBytes(c);
}

void CellArrangement::AddBound(Cell& c, int s) {
  bytes_ -= c.bounds.Bytes();
  c.bounds.PushRow(cut_, s);
  bytes_ += c.bounds.Bytes();
}

void CellArrangement::Insert(int hs_id, const Halfspace& hs) {
  if (stats_ != nullptr) ++stats_->halfspaces_inserted;
  cut_.Reserve(static_cast<int>(hs.a.size()), 2);
  cut_.push_back(hs);
  const Scalar norm = cut_.norm(0);
  if (EpsLe(norm, 0.0)) {
    // Degenerate half-space: covers everything or nothing.
    if (EpsGe(hs.b, 0.0)) {
      for (Cell& c : cells_)
        if (!c.frozen) Cover(c, hs_id);
    }
    return;
  }

  cut_.PushComplement(0);
  const int dim = cut_.dim();
  Scalar dist[kMaxCellVertices];  // the visited cell's vertices, into hs
  ClipBuffer bufs[2];             // its list clipped into hs, complement
  const size_t n = cells_.size();
  for (size_t i = 0; i < n; ++i) {
    // Note: Insert may push new cells; only pre-existing cells are visited.
    if (cells_[i].frozen) continue;

    // The largest distance of a vertex into each side. Without a list both
    // stay infinite, so every side is solved.
    const int nv = cells_[i].NumVertices();
    Scalar in_reach = std::numeric_limits<Scalar>::infinity();
    Scalar out_reach = in_reach;
    if (nv > 0) {
      in_reach = out_reach = -in_reach;
      for (int v = 0; v < nv; ++v) {
        dist[v] = Reach(cut_, 0, &cells_[i].verts[v * dim]);
        in_reach = std::max(in_reach, dist[v]);
        out_reach = std::max(out_reach, -dist[v]);
      }
    }

    // The visited cell's list clipped into side s (0: hs, 1: its
    // complement), which the cut becomes the next bound of, in bufs[s].
    // Each side is clipped at most once, for its certificate or for the
    // list it keeps. kept[s] is the vertex count, <= 0 for no list.
    constexpr int kUnclipped = std::numeric_limits<int>::min();
    int kept[2] = {kUnclipped, kUnclipped};
    auto clip = [&](int s) {
      if (kept[s] != kUnclipped) return kept[s];
      const int m = static_cast<int>(cells_[i].bounds.size());
      kept[s] = ClipVertices(cells_[i], dist, s == 0 ? 1.0 : -1.0, m,
                             &bufs[s]);
      return kept[s];
    };

    // Side s of the cut, bounded by row s of cut_, is interior when it
    // keeps a ball of radius kInteriorEps. A rejected side with radius in
    // (kEps, kInteriorEps] is a sliver; one no wider than kEps lies within
    // the membership tolerance of the cut.
    bool sliver = false;
    auto side_interior = [&](int s, Scalar reach) {
      // Every vertex within kEps of the cut: the side fits in a slab kEps
      // wide, so its radius is at most kEps / 2, and the LP would reject
      // it as neither interior nor a sliver.
      if (EpsLe(reach, 0.0)) return std::optional<InteriorPoint>{};
      // The certificate: a ball about the side's vertex centroid that
      // clears kInteriorEps proves the Chebyshev radius does too, so the LP
      // would keep the side as well (DESIGN.md §4).
      if (const int nc = clip(s); nc > 0) {
        InteriorPoint ball =
            VertexBall(cells_[i].bounds, cut_, s, bufs[s], nc, dim);
        // utk-lint: allow(eps-compare) kInteriorEps is the threshold itself:
        // a radius strictly above it is interior (DESIGN.md §4).
        if (ball.radius > kInteriorEps) return std::optional{std::move(ball)};
      }
      // One Chebyshev solve, started from the cell's cached centre.
      if (stats_ != nullptr) ++stats_->lp_calls;
      auto ip =
          FindInteriorPoint(cells_[i].bounds, cut_, s, cells_[i].interior);
      // utk-lint: allow(eps-compare) kInteriorEps is the threshold itself:
      // a radius strictly above it is interior (DESIGN.md §4).
      if (ip.has_value() && ip->radius > kInteriorEps) return ip;
      // utk-lint: allow(eps-compare) kEps is the threshold itself: a radius
      // strictly above it is a sliver (DESIGN.md §4).
      if (ip.has_value() && ip->radius > kEps) sliver = true;
      return std::optional<InteriorPoint>{};
    };
    // Gives `dst` side s's clipped list.
    auto clip_into = [&](Cell& dst, int s) {
      const int nc = clip(s);
      SetVertices(dst, bufs[s].verts, bufs[s].tight, nc);
    };
    // Keeping one side of a cut that drops a sliver records the cut, so no
    // later split can move the centre back into the sliver (DESIGN.md §4).
    auto bound_if_sliver = [&](int s) {
      if (!sliver) return;
      clip_into(cells_[i], s);
      AddBound(cells_[i], s);
    };

    // Fast path: if the cached ball lies entirely on one side of the
    // hyperplane, that side, `cached`, is feasible and keeps the cell's
    // centre; only the other side needs deciding.
    const Scalar slack = cut_.Slack(0, cells_[i].interior);
    const Scalar radius = cells_[i].radius;
    int cached = -1;
    std::optional<InteriorPoint> ip[2];
    if (slack >= norm * radius) {
      cached = 0;
      ip[1] = side_interior(1, out_reach);
    } else if (slack <= -norm * radius) {
      cached = 1;
      ip[0] = side_interior(0, in_reach);
    } else {
      ip[0] = side_interior(0, in_reach);
      ip[1] = side_interior(1, out_reach);
    }
    const bool inside_feasible = cached == 0 || ip[0].has_value();
    const bool outside_feasible = cached == 1 || ip[1].has_value();

    if (inside_feasible && outside_feasible) {
      // Split: the existing cell becomes the inside child, a new cell is the
      // outside child. Both clip the parent's list.
      Cell outside;
      outside.bounds.Reserve(dim, cells_[i].bounds.size() + 1);
      outside.bounds.Append(cells_[i].bounds);
      outside.bounds.PushRow(cut_, 1);
      outside.covering = cells_[i].covering;
      InteriorPoint centre = cached == 1
                                 ? InteriorPoint{cells_[i].interior, radius}
                                 : std::move(*ip[1]);
      outside.interior = std::move(centre.x);
      outside.radius = centre.radius;
      bytes_ += CellBytes(outside);
      clip_into(outside, 1);
      clip_into(cells_[i], 0);

      AddBound(cells_[i], 0);
      Cover(cells_[i], hs_id);
      if (cached != 0) Recentre(cells_[i], std::move(*ip[0]));

      cells_.push_back(std::move(outside));
      if (stats_ != nullptr) {
        ++stats_->cells_created;
        stats_->peak_bytes = std::max(stats_->peak_bytes, bytes_);
      }
    } else if (inside_feasible) {
      bound_if_sliver(0);
      Cover(cells_[i], hs_id);
      if (cached != 0) Recentre(cells_[i], std::move(*ip[0]));
    } else if (outside_feasible) {
      bound_if_sliver(1);
      if (cached != 1) Recentre(cells_[i], std::move(*ip[1]));
    } else if (EpsGe(slack, 0.0, 0.0)) {
      // Neither side reaches kInteriorEps. One side of any cut keeps a ball
      // of half the cell's radius, so that needs a cell no wider than
      // 2 * kInteriorEps: a near-tie hyperplane through a cell that is
      // itself almost a sliver. Scores on the two sides then still differ
      // by more than kEps, so the side of the cached centre, the cell's
      // witness, decides whether the cut covers the cell. The geometry is
      // unchanged.
      Cover(cells_[i], hs_id);
    }
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
    for (int j = 0; j < cells_[i].bounds.size(); ++j) {
      if (!EpsGe(cells_[i].bounds.Slack(j, w), 0.0, eps)) {
        ok = false;
        break;
      }
    }
    if (ok) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace utk
