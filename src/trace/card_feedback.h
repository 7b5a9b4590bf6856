// Cardinality feedback: measured execution facts fed back into the
// estimator for an adaptive re-plan. PR 5's EXPLAIN ANALYZE machinery can
// *show* est-vs-actual drift; this module makes the optimizer *consume* it.
// A CardFeedback is extracted from an (optionally partial) ExecProfile of
// an aborted or completed run and handed to the next optimization through
// QueryContext::feedback, where DeriveLogicalProps and SelectivityEstimator
// prefer observed values over catalog statistics. Feedback is query-local
// and ephemeral — it never touches the catalog (ANALYZE owns durable
// statistics) and plans costed with it are never admitted to the plan cache.
#ifndef OODB_TRACE_CARD_FEEDBACK_H_
#define OODB_TRACE_CARD_FEEDBACK_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/storage/object_store.h"
#include "src/trace/exec_profile.h"
#include "src/volcano/plan.h"

namespace oodb {

/// Observed cardinality facts keyed by the structures the estimator already
/// resolves during costing: collections, predicate conjunct hashes (the
/// structural ScalarExpr hash *includes literal values*, so feedback for
/// `x == 7` never leaks onto `x == 8` — exactly what catches skew), and
/// (type, field) unnest fanouts. Filters and joins both feed the one
/// conjunct map, so a conjunct's feedback follows it wherever the re-plan
/// places it.
class CardFeedback {
 public:
  void RecordScanCard(const CollectionId& id, double card);
  void RecordSelectivity(size_t conjunct_hash, double sel);
  void RecordUnnestFanout(TypeId type, FieldId field, double fanout);

  std::optional<double> ScanCard(const CollectionId& id) const;
  std::optional<double> Selectivity(size_t conjunct_hash) const;
  std::optional<double> UnnestFanout(TypeId type, FieldId field) const;

  bool empty() const {
    return scan_cards_.empty() && selectivities_.empty() &&
           unnest_fanouts_.empty();
  }

  /// One-line summary ("feedback: 2 scans, 3 conjuncts, 0 unnests")
  /// for the re-plan trail rendering.
  std::string Summary() const;

 private:
  static std::string CollectionKey(const CollectionId& id);
  static uint64_t FieldKey(TypeId type, FieldId field) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(type)) << 32) |
           static_cast<uint32_t>(field);
  }

  std::unordered_map<std::string, double> scan_cards_;
  std::unordered_map<size_t, double> selectivities_;
  std::unordered_map<uint64_t, double> unnest_fanouts_;
};

/// Extracts feedback from an executed (or drift-aborted) plan. Walks the
/// plan tree against `profile` and records, for every node with measured
/// actuals:
///   - scan cardinalities: the *store's* current member count per scanned
///     collection (exact even when the profile is partial — a drift abort
///     stops counting mid-scan, the store does not lie);
///   - filter selectivities: actual-out over actual-in per conjunct. A
///     fused chain reports one combined actual under its top node; the
///     combined selectivity is split geometrically across the chain's
///     conjuncts, preserving the product (and so the chain's output
///     cardinality) wherever the re-plan places each conjunct;
///   - join selectivities: actual-out / (actual-left x actual-right), split
///     the same way across the join's conjuncts. Exactly priced conjuncts
///     (constants, ref == self) take no feedback; their estimate is
///     divided out first;
///   - unnest fanouts: actual-out over actual-in.
/// Ratios are only recorded when the denominator side was actually profiled
/// with rows, so a partial profile from a FAILED run contributes exactly the
/// facts it measured and nothing else.
CardFeedback ExtractCardFeedback(const PlanNode& plan,
                                 const ExecProfile& profile,
                                 const QueryContext& ctx,
                                 const ObjectStore& store);

}  // namespace oodb

#endif  // OODB_TRACE_CARD_FEEDBACK_H_
