#include "exec/column_store.h"

#include <cassert>

namespace utk {

ColumnStore::ColumnStore(const Dataset& data) {
  if (data.empty()) return;
  dim_ = DataDim(data);
  n_ = static_cast<int32_t>(data.size());
  cols_.resize(dim_);
  for (int d = 0; d < dim_; ++d) {
    cols_[d].resize(data.size());
    Scalar* out = cols_[d].data();
    for (size_t i = 0; i < data.size(); ++i) out[i] = data[i].attrs[d];
  }
}

ColumnStore::ColumnStore(const Dataset& data, std::span<const int32_t> ids) {
  if (data.empty() || ids.empty()) return;
  dim_ = DataDim(data);
  n_ = static_cast<int32_t>(ids.size());
  cols_.resize(dim_);
  for (int d = 0; d < dim_; ++d) {
    cols_[d].resize(ids.size());
    Scalar* out = cols_[d].data();
    for (size_t j = 0; j < ids.size(); ++j) out[j] = data[ids[j]].attrs[d];
  }
}

void ColumnStore::SetRow(int32_t row, const Vec& attrs) {
  if (dim_ == 0) {
    dim_ = static_cast<int>(attrs.size());
    cols_.resize(dim_);
  }
  assert(static_cast<int>(attrs.size()) == dim_);
  assert(row >= 0 && row <= n_);
  if (row == n_) {
    for (int d = 0; d < dim_; ++d) cols_[d].push_back(attrs[d]);
    ++n_;
  } else {
    for (int d = 0; d < dim_; ++d) cols_[d][row] = attrs[d];
  }
}

void ColumnStore::Clear() {
  dim_ = 0;
  n_ = 0;
  cols_.clear();
}

}  // namespace utk
