// Declarative query description for the utk::Engine facade.
//
// A QuerySpec names *what* to answer (UTK1 or UTK2 over a region, Section
// 3.1) and, optionally, *how* (a concrete algorithm, or kAuto to let the
// engine plan). The unified QueryResult carries the UTK1 id set and/or the
// UTK2 decomposition plus execution stats and the algorithm that actually
// ran, so callers never touch Rsa/Jaa/Baseline directly.
#ifndef UTK_API_QUERY_H_
#define UTK_API_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/baseline.h"
#include "core/utk.h"
#include "geometry/region.h"

namespace utk {

/// Which UTK variant to answer (Section 3.1).
enum class QueryMode {
  kUtk1,  ///< the minimal set of records in some top-k over the region
  kUtk2,  ///< the exact top-k set for every weight vector in the region
};

/// Which algorithm answers it. kAuto lets the engine plan (see DecidePlan
/// in api/planner.h); the rest force a specific implementation.
enum class Algorithm {
  kAuto,        ///< engine picks: RSA for UTK1, JAA for UTK2
  kRsa,         ///< r-Skyband Algorithm (Section 4), UTK1 only
  kJaa,         ///< Joint Arrangement Algorithm (Section 5); UTK1 via union
  kBaselineSk,  ///< k-skyband filter + kSPR per candidate (Section 3.3)
  kBaselineOn,  ///< onion-layers filter + kSPR per candidate (Section 3.3)
  kNaive,       ///< exact LP-enumeration oracle, UTK1 only, tiny inputs
};

const char* QueryModeName(QueryMode mode);
const char* AlgorithmName(Algorithm algo);

/// Parses "auto" / "rsa" / "jaa" / "sk" / "on" / "naive" (case-insensitive).
std::optional<Algorithm> ParseAlgorithm(const std::string& name);

struct QuerySpec;

/// Short human-readable fingerprint of a spec for logs (the slow-query log,
/// trace annotations): "utk1/rsa/k=10/d=2/r=9f3a12c4" where r is a CRC over
/// the region bytes. Distinct from the serving cache's CanonicalFingerprint
/// (src/serve/result_cache.h), which is a binary key and epoch-qualified.
std::string SpecFingerprint(const QuerySpec& spec);

/// A declarative UTK query.
struct QuerySpec {
  QueryMode mode = QueryMode::kUtk1;
  Algorithm algorithm = Algorithm::kAuto;
  int k = 10;
  ConvexRegion region;

  // Refinement knobs, mapped onto Rsa::Options (all three) or JAA's
  // RefineOptions (all but use_drill); the other algorithms ignore them.
  bool use_drill = true;   ///< drill short-circuit (Section 4.3)
  bool use_lemma1 = true;  ///< Lemma-1 competitor pruning (Section 4.2)
  int wave_cap = 8;        ///< max half-spaces per local arrangement, >= 0
  /// Ignored; kept only because perfbench reads it (ROADMAP item 9). Every
  /// query runs on one thread. Excluded from SpecFingerprint and the
  /// serving cache's CanonicalFingerprint.
  int refine_threads = 0;
};

/// Unified result of one query. `ids` is always the UTK1 answer; for UTK2
/// queries the decomposition of the region rides along in `utk2` (common
/// global arrangement, JAA) or `per_record` (per-record cells, baselines) —
/// the two output shapes the paper contrasts in Section 5.
struct QueryResult {
  bool ok = false;
  std::string error;  ///< set when !ok; the query did not run

  QueryMode mode = QueryMode::kUtk1;
  Algorithm algorithm = Algorithm::kAuto;  ///< algorithm that actually ran

  std::vector<int32_t> ids;       ///< UTK1 answer, sorted ascending
  Utk2Result utk2;                ///< UTK2 via kJaa/kAuto: the arrangement
  BaselineUtk2Result per_record;  ///< UTK2 via kBaselineSk/kBaselineOn
  QueryStats stats;
};

}  // namespace utk

#endif  // UTK_API_QUERY_H_
