// ANALYZE: recompute catalog statistics from stored data. The paper calls
// its selectivity estimation "naive" and promises "a more accurate
// selectivity estimation method"; this closes that loop — collection
// cardinalities, per-field distinct counts, numeric [min, max] ranges,
// set-field fanouts, and index distinct-key counts are all measured from
// the actual population instead of assumed.
#ifndef OODB_CATALOG_ANALYZE_H_
#define OODB_CATALOG_ANALYZE_H_

#include "src/storage/object_store.h"

namespace oodb {

class QueryGovernor;

struct AnalyzeOptions {
  /// Update collection cardinalities.
  bool cardinalities = true;
  /// When set, the full-store statistics scan is charged against this
  /// governor's row budget before any catalog mutation happens. Used by the
  /// session's drift-triggered auto-ANALYZE so background refresh work runs
  /// on the triggering query's budget instead of for free.
  QueryGovernor* governor = nullptr;
};

/// Scans `store` (without simulation accounting) and updates `catalog`'s
/// statistics in place. Field statistics for a type are computed over the
/// type's extent if it has one, else over all stored objects of the type.
Status AnalyzeStore(const ObjectStore& store, Catalog* catalog,
                    AnalyzeOptions options = {});

}  // namespace oodb

#endif  // OODB_CATALOG_ANALYZE_H_
