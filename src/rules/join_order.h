// Join ordering: one transformation rule inserts every split of a join
// graph once. A group is a join graph when it is closed: it applies every
// query conjunct its scope covers, so its scope names it. Its vertices are
// its ranges, Mat targets and Unnest targets; its edges the conjuncts it
// applies and a reference edge from each Mat or Unnest source to its target.
// For every split (S1, S2), cartesian ones included (unlike DPccp, since
// some optima hash-join unlinked ranges), the rule inserts
// Join(group(S1), group(S2)) with the crossing conjuncts, and for a Mat or
// Unnest target t with S2 = {t}, t's operator over group(S1). group(S) comes
// from one map per search keyed by scope; a missing one is created with all
// its splits. Groups over ten vertices, or no join graph, get only a join's
// mirror and a Mat's extent join. DESIGN.md "Search engine design" has more.
#ifndef OODB_RULES_JOIN_ORDER_H_
#define OODB_RULES_JOIN_ORDER_H_

#include <memory>
#include <vector>

#include "src/volcano/rule.h"

namespace oodb {

/// The join-order rule, one instance per operator kind a join graph's
/// group can hold (Select, Mat, Unnest, Join); the instances share one
/// search's groups. Named kRuleJoinOrder; it reads the kRuleJoinCommute
/// and kRuleMatToJoin switches.
std::vector<std::unique_ptr<TransformationRule>> MakeJoinOrderRules();

}  // namespace oodb

#endif  // OODB_RULES_JOIN_ORDER_H_
