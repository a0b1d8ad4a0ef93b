// ColumnStore — the SoA (structure-of-arrays) mirror of a Dataset.
//
// Every UTK operator bottoms out in millions of per-record score and
// dominance evaluations. A Record keeps its attributes in a heap-allocated
// std::vector, so AoS hot loops chase one pointer per record and defeat
// vectorization. The ColumnStore lays the same catalog out as one
// contiguous Scalar array per dimension, indexed by the records' stable
// ids: column d holds attrs[d] of record 0, 1, 2, ... back to back. The
// batched kernels in exec/kernels.h sweep these columns with simple
// contiguous loops the compiler auto-vectorizes.
//
// Build patterns:
//   * once per catalog (Engine),
//   * gathered over a candidate band (RSA/JAA refinement), where row j
//     mirrors data[ids[j]], and
//   * incrementally (LiveEngine): SetRow extends or overwrites a row in
//     O(dim), keeping the store in lockstep with an epoch-versioned
//     catalog — tombstoned rows simply keep their last attributes, exactly
//     like the live engine's Dataset does.
//
// The store always owns its columns, but never record ids or liveness;
// callers index it with the same ids/rows they would use on the mirrored
// Dataset.
#ifndef UTK_EXEC_COLUMN_STORE_H_
#define UTK_EXEC_COLUMN_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace utk {

class ColumnStore {
 public:
  ColumnStore() = default;

  /// Full mirror: row i holds data[i].attrs (the repo invariant
  /// data[i].id == i makes rows stable-id indexable).
  explicit ColumnStore(const Dataset& data);

  /// Gathered mirror: row j holds data[ids[j]].attrs. Used for candidate
  /// bands, whose few hundred rows are scored thousands of times during
  /// refinement.
  ColumnStore(const Dataset& data, std::span<const int32_t> ids);

  int dim() const { return dim_; }
  int32_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Contiguous column d (length size()).
  const Scalar* col(int d) const { return cols_[d].data(); }
  Scalar at(int32_t row, int d) const { return col(d)[row]; }

  /// Writes `attrs` at `row`, growing the store by exactly one row when
  /// row == size(). First write on an empty store fixes dim(). This is the
  /// live-update maintenance hook: inserts append or overwrite tombstoned
  /// rows in O(dim) without touching the other columns' prefixes.
  void SetRow(int32_t row, const Vec& attrs);

  void Clear();

 private:
  int dim_ = 0;
  int32_t n_ = 0;
  std::vector<std::vector<Scalar>> cols_;  ///< one contiguous array per dim
};

}  // namespace utk

#endif  // UTK_EXEC_COLUMN_STORE_H_
