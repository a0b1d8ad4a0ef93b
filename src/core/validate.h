// Dataset validation for the query engines.
//
// The algorithms themselves assume well-formed inputs (ids equal to indices,
// consistent dimensionality, finite attributes); the engines run these
// checks once on the data they are built over and on every live insert, so
// bad data comes back as an actionable ok=false diagnostic instead of
// tripping asserts deep inside the geometry. The per-query rules (k, region
// dimensionality and interior) live in QueryEngine::Validate.
#ifndef UTK_CORE_VALIDATE_H_
#define UTK_CORE_VALIDATE_H_

#include <optional>
#include <string>

#include "common/types.h"

namespace utk {

/// Returns an error description, or nullopt if the dataset is well-formed:
/// non-empty, uniform dimensionality >= 2, ids equal to positions, and all
/// attribute values finite.
std::optional<std::string> ValidateDataset(const Dataset& data);

/// The check ValidateDataset applies to each record: an error naming the
/// first non-finite attribute of `r`, or nullopt when all are finite.
std::optional<std::string> NonFiniteAttribute(const Record& r);

}  // namespace utk

#endif  // UTK_CORE_VALIDATE_H_
