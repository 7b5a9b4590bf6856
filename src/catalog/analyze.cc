#include "src/catalog/analyze.h"

#include <algorithm>
#include <set>
#include <vector>

#include "src/common/governor.h"

namespace oodb {

namespace {

struct FieldStats {
  std::set<std::string> distinct;
  int64_t min_value = 0;
  int64_t max_value = 0;
  bool any_int = false;
  double set_elements = 0;
  int64_t rows = 0;
};

}  // namespace

Status AnalyzeStore(const ObjectStore& store, Catalog* catalog,
                    AnalyzeOptions options) {
  const Schema& schema = catalog->schema();

  if (options.governor != nullptr) {
    // Charge the statistics scan before mutating anything: one row per
    // stored object. A governed query that triggers auto-ANALYZE pays for
    // the refresh; if the budget cannot cover it, the catalog is left
    // untouched and the caller sees the trip.
    OODB_RETURN_IF_ERROR(
        options.governor->ChargeRows(store.num_objects()));
  }

  // Bump *before* the first mutation, not only after the last one. The
  // field/index sections below write through the non-bumping schema()
  // accessor; with only the trailing bump, a concurrent Session::Prepare
  // that snapshotted the pre-ANALYZE version could cost a plan against
  // partially-updated statistics, cache it under that old version, and have
  // it served to every same-version lookup until the trailing bump finally
  // lands. Bumping first makes any such entry stale the instant ANALYZE
  // begins: it is dead on insertion and invalidated at first contact.
  catalog->BumpStatsVersion();

  if (options.cardinalities) {
    // Collection cardinalities are exact counts of the stored members.
    std::vector<CollectionInfo> collections = catalog->collections();
    for (const CollectionInfo& c : collections) {
      Result<const std::vector<Oid>*> members = store.CollectionMembers(c.id);
      if (!members.ok()) continue;  // not populated in this store
      OODB_RETURN_IF_ERROR(catalog->SetCardinality(
          c.id, static_cast<int64_t>((*members)->size())));
    }
  }

  // One pass over every stored object, accumulating per (type, field).
  std::vector<std::vector<FieldStats>> stats(schema.num_types());
  for (TypeId t = 0; t < schema.num_types(); ++t) {
    stats[t].resize(schema.type(t).fields().size());
  }
  for (Oid oid = 0; oid < store.num_objects(); ++oid) {
    OODB_ASSIGN_OR_RETURN(const ObjectData* obj_ptr, store.Peek(oid));
    const ObjectData& obj = *obj_ptr;
    const TypeDef& td = schema.type(obj.type);
    int ref_set_slot = 0;
    for (FieldId f = 0; f < static_cast<FieldId>(td.fields().size()); ++f) {
      const FieldDef& def = td.field(f);
      FieldStats& fs = stats[obj.type][f];
      ++fs.rows;
      switch (def.kind) {
        case FieldKind::kInt: {
          int64_t v = obj.value(f).i;
          if (!fs.any_int || v < fs.min_value) fs.min_value = v;
          if (!fs.any_int || v > fs.max_value) fs.max_value = v;
          fs.any_int = true;
          fs.distinct.insert(std::to_string(v));
          break;
        }
        case FieldKind::kDouble:
        case FieldKind::kString:
          fs.distinct.insert(obj.value(f).ToString());
          break;
        case FieldKind::kRef:
          break;
        case FieldKind::kRefSet:
          fs.set_elements +=
              static_cast<double>(obj.ref_sets[ref_set_slot].size());
          ++ref_set_slot;
          break;
      }
    }
  }
  for (TypeId t = 0; t < schema.num_types(); ++t) {
    TypeDef& td = catalog->schema().mutable_type(t);
    for (FieldId f = 0; f < static_cast<FieldId>(td.fields().size()); ++f) {
      const FieldStats& fs = stats[t][f];
      if (fs.rows == 0) continue;
      FieldDef& def = td.mutable_field(f);
      switch (def.kind) {
        case FieldKind::kInt:
          def.distinct_values = static_cast<int64_t>(fs.distinct.size());
          def.min_value = fs.min_value;
          def.max_value = fs.max_value;
          break;
        case FieldKind::kDouble:
        case FieldKind::kString:
          def.distinct_values = static_cast<int64_t>(fs.distinct.size());
          break;
        case FieldKind::kRef:
          break;
        case FieldKind::kRefSet:
          def.avg_set_card =
              fs.set_elements / static_cast<double>(fs.rows);
          break;
      }
    }
  }

  for (const IndexInfo& info : catalog->indexes()) {
    Result<const StoredIndex*> idx = store.FindIndex(info.name);
    if (!idx.ok()) continue;  // not built in this store
    Result<IndexInfo*> mutable_info = catalog->FindIndex(info.name);
    if (mutable_info.ok()) {
      (*mutable_info)->distinct_keys = (*idx)->num_keys();
    }
  }
  // Field and index statistics above mutate the catalog directly (not
  // through a bumping mutator); together with the leading bump this
  // brackets the whole mutation window, so a version snapshotted at any
  // point before or during ANALYZE differs from the final version and any
  // plan costed against in-flight statistics can never be served again.
  catalog->BumpStatsVersion();
  catalog->MarkStatsMeasured();
  return Status::OK();
}

}  // namespace oodb
