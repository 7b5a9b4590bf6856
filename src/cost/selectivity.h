// Selectivity estimation (paper §4): "If no index can be used to assist in
// selectivity estimation, selectivity of selection predicates is assumed to
// be 10%". An equality predicate whose attribute is reachable through an
// enabled (possibly path-) index is estimated as 1/distinct-keys.
// Select and Join price each conjunct the same way, so a group's
// cardinality does not depend on which expression derives it.
#ifndef OODB_COST_SELECTIVITY_H_
#define OODB_COST_SELECTIVITY_H_

#include <optional>

#include "src/algebra/expr.h"
#include "src/algebra/logical_op.h"

namespace oodb {

inline constexpr double kDefaultSelectivity = 0.10;
inline constexpr double kDefaultRangeSelectivity = 1.0 / 3.0;

/// Estimates predicate selectivities against a catalog.
class SelectivityEstimator {
 public:
  explicit SelectivityEstimator(const QueryContext* ctx) : ctx_(ctx) {}

  /// Selectivity of an arbitrary (possibly conjunctive) predicate:
  /// conjuncts multiply, disjuncts combine by inclusion-exclusion.
  double Estimate(const ScalarExprPtr& pred) const;

  /// True for a conjunct priced exactly, which feedback never overrides:
  /// a constant, or `ref == self`.
  static bool IsExact(const ScalarExprPtr& conjunct);

  /// If an enabled index assists `binding`.`field` (directly, or as the key
  /// of a path index whose path matches the binding's Mat-derivation chain
  /// back to a scanned collection), returns it.
  const IndexInfo* FindAssistingIndex(BindingId binding, FieldId field) const;

 private:
  double EstimateConjunct(const ScalarExprPtr& e) const;

  const QueryContext* ctx_;
};

}  // namespace oodb

#endif  // OODB_COST_SELECTIVITY_H_
