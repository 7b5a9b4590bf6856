// The transformation rule set (paper §3 "Transformation Rules"): the known
// relational transformations plus the new rules pertaining to the
// materialize operator — Mat/Mat commutativity, Mat through Select / Unnest
// / Join, and the Mat -> Join rewrite that lets set-matching algorithms
// (and reverse-direction link traversal) compete with pointer chasing.
#ifndef OODB_RULES_TRANSFORMATIONS_H_
#define OODB_RULES_TRANSFORMATIONS_H_

#include <memory>
#include <vector>

#include "src/volcano/rule.h"

namespace oodb {

/// Builds the full default transformation rule set.
std::vector<std::unique_ptr<TransformationRule>> MakeDefaultTransformations();

}  // namespace oodb

#endif  // OODB_RULES_TRANSFORMATIONS_H_
