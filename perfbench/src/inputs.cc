#include <sys/resource.h>

#include <cmath>

#include "common/rng.h"
#include "workloads.h"

namespace perfbench {

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);  // SplitMix64
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<utk::ConvexRegion> QueryBoxes(int pref_dim, double sigma,
                                          int count, uint64_t seed) {
  static constexpr int kPrimes[] = {2, 3, 5, 7, 11, 13};
  utk::Rng rng(seed);
  std::vector<double> shift(static_cast<size_t>(pref_dim));
  for (double& u : shift) u = rng.Uniform();
  std::vector<utk::ConvexRegion> out;
  for (uint64_t index = 1; static_cast<int>(out.size()) < count; ++index) {
    utk::Vec lo(shift.size()), hi(shift.size());
    double hi_sum = 0.0;
    for (size_t d = 0; d < shift.size(); ++d) {
      double x = 0.0, f = 1.0;  // radical inverse of `index` in base p
      for (uint64_t i = index; i > 0; i /= kPrimes[d]) {
        f /= kPrimes[d];
        x += f * static_cast<double>(i % kPrimes[d]);
      }
      x += shift[d];
      lo[d] = (x - std::floor(x)) * (1.0 - sigma);
      hi[d] = lo[d] + sigma;
      hi_sum += hi[d];
    }
    if (hi_sum <= 1.0) out.push_back(utk::ConvexRegion::FromBox(lo, hi));
  }
  return out;
}

}  // namespace perfbench
