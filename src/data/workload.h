// Query-workload helpers for experiments (Section 7): random axis-parallel
// hyper-cube regions of side-length sigma, placed uniformly inside the valid
// preference simplex, exactly as the paper's setup prescribes.
#ifndef UTK_DATA_WORKLOAD_H_
#define UTK_DATA_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "data/generator.h"
#include "geometry/region.h"

namespace utk {

/// A random axis-parallel hyper-cube in the (pref_dim)-dimensional preference
/// domain with side-length `sigma` (fraction of the unit axis), rejected
/// until it lies fully inside the weight simplex so that every vector in it
/// is a valid preference.
ConvexRegion RandomQueryBox(int pref_dim, Scalar sigma, Rng& rng);

/// A batch of `count` random query boxes (the paper averages over 50).
std::vector<ConvexRegion> QueryBatch(int pref_dim, Scalar sigma, int count,
                                     uint64_t seed);

/// A random axis-parallel sub-box of box region `parent` with side lengths
/// `shrink` (in (0, 1]) times the parent's, placed uniformly inside it. The
/// result is always contained in the parent (and so inside the simplex).
ConvexRegion RandomSubBox(const ConvexRegion& parent, Scalar shrink, Rng& rng);

/// How one request of a serving trace relates to the trace's hot set — the
/// cache outcome it is designed to exercise once the hot set is warm.
enum class TraceKind {
  kRepeat,     ///< an exact repeat of a hot region (exact-hit path)
  kSubregion,  ///< a random sub-box of a hot region (a miss near hot data)
  kFresh,      ///< an unrelated random region (miss path)
};

/// Knobs for MakeServeTrace. Fractions that do not sum to 1 leave the
/// remainder to kFresh queries.
struct ServeTraceOptions {
  int pref_dim = 2;
  Scalar sigma = 0.1;               ///< side length of the hot regions
  int hot_regions = 4;              ///< size of the hot set
  double repeat_fraction = 0.4;     ///< share of exact repeats
  double subregion_fraction = 0.3;  ///< share of contained sub-boxes
  Scalar shrink = 0.5;              ///< sub-box side relative to its parent
  uint64_t seed = 1;
};

/// An overlapping serving workload (repeated and contained query streams
/// for the serving layer in src/serve): `queries[i]` is classified by
/// `kinds[i]`, and `hot` lists the distinct hot regions that repeats and
/// subregions are drawn from. Deterministic in the options' seed.
struct ServeTrace {
  std::vector<ConvexRegion> hot;
  std::vector<ConvexRegion> queries;
  std::vector<TraceKind> kinds;
};
ServeTrace MakeServeTrace(int count, const ServeTraceOptions& opt);

/// One catalog mutation of an update trace (the live-update workload for
/// src/live/LiveEngine).
enum class UpdateKind { kInsert, kErase };
struct UpdateOp {
  UpdateKind kind = UpdateKind::kInsert;
  /// kInsert: the record to add. record.id == -1 asks the engine to assign
  /// the next id; a non-negative id re-inserts a previously erased record
  /// under its old id.
  Record record;
  /// kErase: the id to remove.
  int32_t id = -1;
};

/// Knobs for MakeUpdateTrace.
struct UpdateTraceOptions {
  double insert_fraction = 0.5;    ///< share of ops that are inserts
  double reinsert_fraction = 0.3;  ///< share of inserts reviving an erased id
  Distribution dist = Distribution::kIndependent;  ///< fresh-record shape
  uint64_t seed = 1;
};

/// A deterministic mixed insert/erase trace of `count` ops against a catalog
/// that starts as `initial` (records ids 0..n-1). Erases always target a
/// currently-live id; fresh inserts carry id -1 and the generator assumes
/// the engine assigns ids sequentially from initial.size() (LiveEngine's
/// contract), so later erases can target them. Reinserts revive an erased
/// record verbatim under its old id. Deterministic in the seed.
std::vector<UpdateOp> MakeUpdateTrace(const Dataset& initial, int count,
                                      const UpdateTraceOptions& opt);

}  // namespace utk

#endif  // UTK_DATA_WORKLOAD_H_
