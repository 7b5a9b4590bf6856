// The transformation rule set (paper §3 "Transformation Rules"): Selects
// pushed below Mats, Unnests and joins, and the join-order rule
// (src/rules/join_order.h), which places every join, Mat and Unnest of a
// join graph and carries the Mat -> Join rewrite that lets set-matching
// algorithms compete with pointer chasing.
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
