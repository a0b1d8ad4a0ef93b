#include "core/validate.h"

#include <cmath>
#include <sstream>

namespace utk {

std::optional<std::string> ValidateDataset(const Dataset& data) {
  if (data.empty()) return "dataset is empty";
  const int dim = data.front().Dim();
  if (dim < 2) return "records need at least 2 attributes";
  for (size_t i = 0; i < data.size(); ++i) {
    const Record& r = data[i];
    if (r.id != static_cast<int32_t>(i)) {
      std::ostringstream os;
      os << "record at position " << i << " has id " << r.id
         << " (ids must equal positions)";
      return os.str();
    }
    if (r.Dim() != dim) {
      std::ostringstream os;
      os << "record " << i << " has " << r.Dim() << " attributes, expected "
         << dim;
      return os.str();
    }
    if (auto err = NonFiniteAttribute(r)) return err;
  }
  return std::nullopt;
}

std::optional<std::string> NonFiniteAttribute(const Record& r) {
  for (int d = 0; d < r.Dim(); ++d) {
    if (!std::isfinite(r.attrs[d])) {
      std::ostringstream os;
      os << "record " << r.id << " attribute " << d << " is not finite";
      return os.str();
    }
  }
  return std::nullopt;
}

}  // namespace utk
