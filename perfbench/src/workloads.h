// The benchmark's workloads. Each runs closed-loop from one client thread:
// the next request is sent when the previous one returns.
//
// A run has two phases. Phase A is the measurement: requests run without
// tracing until `seconds` of loop time have passed, and it yields the
// end-to-end metrics. With tracing on, phase B then replays the same
// requests with a span around every public call the benchmark makes into a
// layer, plus the layer calls that split a query into its parts, and yields
// the per-layer metrics. Answer checks run outside the timed regions.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/region.h"

#include "measure.h"
#include "span_trace.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool inject_fault = false;  ///< corrupt one checked answer on purpose
  std::string work_dir;       ///< scratch space for catalog directories
};

RunResult RunIndFilter(const RunOptions& opt, Tracer& tracer);
RunResult RunAntiRefine(const RunOptions& opt, Tracer& tracer);
RunResult RunServeLive(const RunOptions& opt, Tracer& tracer);

/// Generator seed of every workload's dataset (the one bench/ uses). The
/// dataset is fixed per workload, as the paper's are; --seed draws the
/// query and update streams. With n=10k ANTI, redrawing the data per seed
/// moved the UTK1 median between seeds by more than a usable bound.
inline constexpr uint64_t kDataSeed = 4242;

/// Number of set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// A seed for one input stream of a run, derived from the run's seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// `count` sigma-sided query boxes inside the weight simplex, placed by a
/// randomly shifted Halton sequence: each box is uniform over the valid
/// placements, as the paper's random boxes are, but the set covers the
/// simplex evenly, so a run's medians and means move far less from one
/// seed to the next than with independent draws. pref_dim is at most 6.
std::vector<utk::ConvexRegion> QueryBoxes(int pref_dim, double sigma,
                                          int count, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
