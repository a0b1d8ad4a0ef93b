#include "skyline/dominance.h"

namespace utk {

bool Dominates(const Vec& a, const Vec& b, Scalar eps) {
  bool strict = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (EpsLt(a[i], b[i], eps)) return false;
    if (EpsGt(a[i], b[i], eps)) strict = true;
  }
  return strict;
}

bool WeaklyDominates(const Vec& a, const Vec& b, Scalar eps) {
  for (size_t i = 0; i < a.size(); ++i)
    if (EpsLt(a[i], b[i], eps)) return false;
  return true;
}

}  // namespace utk
