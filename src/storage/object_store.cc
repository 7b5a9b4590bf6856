#include "src/storage/object_store.h"

#include <algorithm>
#include <cassert>

namespace oodb {

ObjectStore::ObjectStore(const Catalog* catalog, StoreOptions options)
    : catalog_(catalog),
      options_(options),
      faults_(options_.faults),
      buffer_(&options_.timing, options_.buffer_pages,
              options_.faults.enabled() ? &faults_ : nullptr) {
  placement_.resize(catalog_->schema().num_types());
  extents_.resize(catalog_->schema().num_types());
}

void ObjectStore::InvalidateColumns() {
  MutexLock lock(columns_mu_);
  columns_.clear();
}

const ColumnProjection* ObjectStore::Projection(TypeId type, FieldId field) {
  if (!catalog_->schema().has_type(type)) return nullptr;
  const TypeDef& td = catalog_->schema().type(type);
  if (field < 0 || field >= static_cast<FieldId>(td.fields().size())) {
    return nullptr;
  }
  FieldKind kind = td.field(field).kind;
  if (kind == FieldKind::kString || kind == FieldKind::kRefSet) return nullptr;

  MutexLock lock(columns_mu_);
  auto key = std::make_pair(type, field);
  auto it = columns_.find(key);
  if (it != columns_.end()) return it->second.get();

  auto proj = std::make_unique<ColumnProjection>();
  proj->is_real = kind == FieldKind::kDouble;
  size_t n = objects_.size();
  if (proj->is_real) {
    proj->reals.assign(n, 0.0);
  } else {
    proj->ints.assign(n, 0);
  }
  Value::Kind want =
      proj->is_real ? Value::Kind::kDouble : Value::Kind::kInt;
  for (size_t i = 0; i < n; ++i) {
    const ObjectData& obj = objects_[i];
    if (obj.type != type) continue;
    const Value& v = obj.values[field];
    if (v.kind != want) {
      proj->homogeneous = false;
      continue;
    }
    if (proj->is_real) {
      proj->reals[i] = v.d;
    } else {
      proj->ints[i] = v.i;
    }
  }
  const ColumnProjection* out = proj.get();
  columns_.emplace(key, std::move(proj));
  return out;
}

void ObjectStore::Reserve(int64_t objects) {
  objects_.reserve(static_cast<size_t>(objects));
  object_page_.reserve(static_cast<size_t>(objects));
}

Oid ObjectStore::Create(TypeId type) {
  assert(catalog_->schema().has_type(type));
  const TypeDef& td = catalog_->schema().type(type);
  TypePlacement& place = placement_[type];
  int64_t size = td.object_size();
  if (place.current_page == kInvalidPage ||
      place.bytes_on_current + size > options_.timing.page_size) {
    place.current_page = next_page_++;
    if (place.first_page == kInvalidPage) place.first_page = place.current_page;
    place.bytes_on_current = 0;
  }
  place.bytes_on_current += size;

  Oid oid = static_cast<Oid>(objects_.size());
  ObjectData obj;
  obj.oid = oid;
  obj.type = type;
  obj.values.resize(td.fields().size());
  int ref_sets = 0;
  for (const FieldDef& f : td.fields()) {
    if (f.kind == FieldKind::kRefSet) ++ref_sets;
  }
  obj.ref_sets.resize(ref_sets);
  objects_.push_back(std::move(obj));
  object_page_.push_back(place.current_page);
  if (catalog_->HasExtent(type)) extents_[type].push_back(oid);
  InvalidateColumns();
  return oid;
}

void ObjectStore::SetValue(Oid oid, FieldId field, Value v) {
  assert(Exists(oid));
  objects_[oid].values[field] = std::move(v);
  InvalidateColumns();
}

void ObjectStore::SetRef(Oid oid, FieldId field, Oid target) {
  assert(Exists(oid));
  objects_[oid].values[field] = Value::Int(target);
  InvalidateColumns();
}

void ObjectStore::AddToRefSet(Oid oid, FieldId field, Oid target) {
  assert(Exists(oid));
  ObjectData& obj = objects_[oid];
  const TypeDef& td = catalog_->schema().type(obj.type);
  int slot = 0;
  for (FieldId f = 0; f < field; ++f) {
    if (td.field(f).kind == FieldKind::kRefSet) ++slot;
  }
  assert(td.field(field).kind == FieldKind::kRefSet);
  obj.ref_sets[slot].push_back(target);
  // Record the set's cardinality hint in values[field] for generic reads.
  obj.values[field] = Value::Int(static_cast<int64_t>(obj.ref_sets[slot].size()));
  InvalidateColumns();
}

Status ObjectStore::AddToSet(const std::string& set_name, Oid oid) {
  OODB_RETURN_IF_ERROR(catalog_->FindSet(set_name).status());
  sets_[set_name].push_back(oid);
  return Status::OK();
}

Result<const ObjectData*> ObjectStore::Read(Oid oid, SimStream* stream) {
  if (!Exists(oid)) {
    return Status::InvalidArgument("read of invalid oid " +
                                   std::to_string(oid));
  }
  if (stream != nullptr) {
    if (options_.faults.enabled()) {
      OODB_RETURN_IF_ERROR(faults_.OnObjectRead(oid));
    }
    OODB_RETURN_IF_ERROR(buffer_.AccessMany(&object_page_[oid], 1, stream));
  }
  return &objects_[oid];
}

Status ObjectStore::ReadMany(const Oid* oids, size_t n,
                             const ObjectData** out, SimStream* stream) {
  if (options_.faults.enabled()) {
    // Faulted reads keep per-object access granularity so the injector's
    // deterministic access counter advances exactly as in n Read() calls.
    for (size_t i = 0; i < n; ++i) {
      OODB_ASSIGN_OR_RETURN(out[i], Read(oids[i], stream));
    }
    return Status::OK();
  }
  // One charged access covers the whole run of objects on a page; the run
  // pages are batched through AccessMany so the pool lock and statistics
  // are touched once per group of runs instead of once per run. Charges
  // are flushed before reporting a bad OID, so the pages read ahead of the
  // failure are accounted exactly as per-run accesses would.
  constexpr size_t kMaxRuns = 64;
  PageId run_pages[kMaxRuns];
  size_t runs = 0;
  size_t i = 0;
  while (i < n) {
    Oid oid = oids[i];
    if (!Exists(oid)) {
      OODB_RETURN_IF_ERROR(buffer_.AccessMany(run_pages, runs, stream));
      return Status::InvalidArgument("read of invalid oid " +
                                     std::to_string(oid));
    }
    PageId page = object_page_[oid];
    run_pages[runs++] = page;
    out[i] = &objects_[oid];
    for (++i; i < n; ++i) {
      Oid next = oids[i];
      if (!Exists(next) || object_page_[next] != page) break;
      out[i] = &objects_[next];
    }
    if (runs == kMaxRuns) {
      OODB_RETURN_IF_ERROR(buffer_.AccessMany(run_pages, runs, stream));
      runs = 0;
    }
  }
  return buffer_.AccessMany(run_pages, runs, stream);
}

PageId ObjectStore::PageOf(Oid oid) const { return object_page_[oid]; }

Result<const std::vector<Oid>*> ObjectStore::CollectionMembers(
    const CollectionId& id) const {
  if (id.kind == CollectionId::Kind::kExtent) {
    if (!catalog_->HasExtent(id.type)) {
      return Status::NotFound("type has no extent");
    }
    return &extents_[id.type];
  }
  auto it = sets_.find(id.name);
  if (it == sets_.end()) return Status::NotFound("set not populated: " + id.name);
  return &it->second;
}

Status ObjectStore::BuildIndexes() {
  indexes_.clear();
  indexes_.reserve(catalog_->indexes().size());
  for (const IndexInfo& info : catalog_->indexes()) {
    StoredIndex idx(&info);
    OODB_ASSIGN_OR_RETURN(const std::vector<Oid>* members,
                          CollectionMembers(info.collection));
    for (Oid root : *members) {
      // Dereference the path without charging I/O (index construction is
      // not part of query execution).
      Oid cur = root;
      bool ok = true;
      for (size_t i = 0; i + 1 < info.path.size(); ++i) {
        Oid next = objects_[cur].ref(info.path[i]);
        if (next == kInvalidOid || !Exists(next)) {
          ok = false;
          break;
        }
        cur = next;
      }
      if (!ok) continue;
      idx.Insert(objects_[cur].value(info.path.back()), root);
    }
    indexes_.push_back(std::move(idx));
  }
  return Status::OK();
}

Result<const StoredIndex*> ObjectStore::FindIndex(const std::string& name) const {
  for (const StoredIndex& idx : indexes_) {
    if (idx.info().name == name) return &idx;
  }
  return Status::NotFound("index not built: " + name);
}

void ObjectStore::ResetSimulation() {
  stream_ = SimStream{};
  buffer_.Reset();
  faults_.Reset();
}

void ObjectStore::SetFaultPolicy(FaultPolicy policy) {
  options_.faults = std::move(policy);
  faults_.SetPolicy(options_.faults);
  buffer_.set_fault_injector(options_.faults.enabled() ? &faults_ : nullptr);
}

}  // namespace oodb
