// The simulated object store: objects placed densely on pages (clustered by
// type in creation order, as the paper assumes), named sets, type extents,
// and an LRU buffer pool over a seek-aware disk model. Reads are charged to
// the simulated clock so executed plans can be compared with the
// optimizer's anticipated costs.
#ifndef OODB_STORAGE_OBJECT_STORE_H_
#define OODB_STORAGE_OBJECT_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/fault.h"
#include "src/storage/index.h"
#include "src/storage/object.h"

namespace oodb {

/// A dense-by-OID typed projection of one scalar field of one type — the
/// columnar side of the store that vectorized execution gathers from.
/// objects_ is an array of structs whose Values live in per-object heap
/// blocks, so a per-batch field gather pays two dependent pointer chases per
/// row; this projection pays them once per field, at first use, and every
/// later gather is a single indexed load into a contiguous typed vector.
/// Built lazily, cached, and invalidated by population writes. Carries no
/// simulation accounting: scans still charge their reads through
/// Read/ReadMany; the projection only replaces the (uncharged) in-memory
/// Value loads.
struct ColumnProjection {
  /// Exactly one of these is populated, both indexed by Oid over the whole
  /// store (entries for OIDs outside the projected type are zero).
  std::vector<int64_t> ints;  ///< kInt and kRef fields (refs as OIDs)
  std::vector<double> reals;  ///< kDouble fields
  bool is_real = false;
  /// True when every object of the projected type stores a value of the
  /// field's declared kind — the datagen invariant. Kernels require it; a
  /// population with nulls or kind drift keeps the per-row fallback.
  bool homogeneous = true;
};

struct StoreOptions {
  CostModelOptions timing;
  /// Buffer pool capacity in pages (default ~4 MB at 4 KiB pages).
  int64_t buffer_pages = 1024;
  /// Deterministic fault injection on charged reads (inert by default).
  FaultPolicy faults;
};

/// The object store.
class ObjectStore {
 public:
  explicit ObjectStore(const Catalog* catalog, StoreOptions options = {});

  const Catalog& catalog() const { return *catalog_; }

  // --- population (no I/O charged) ---

  /// Sizes the object table for `objects` objects in all. A population
  /// generator that knows its size calls this first, so the table is not
  /// grown by doubling: at scale 1.0 those transient copies are the
  /// largest allocations of a build.
  void Reserve(int64_t objects);
  /// Creates an object of `type`, placing it on the type's current page.
  Oid Create(TypeId type);
  void SetValue(Oid oid, FieldId field, Value v);
  void SetRef(Oid oid, FieldId field, Oid target);
  void AddToRefSet(Oid oid, FieldId field, Oid target);
  /// Adds `oid` to named set `set_name` (must exist in the catalog).
  Status AddToSet(const std::string& set_name, Oid oid);

  /// Builds every index registered in the catalog from the stored data.
  Status BuildIndexes();

  // --- reads (charged to the caller's pipeline stream) ---

  /// Fetches an object, charging a buffer-pool access of its page to
  /// `stream`. Fails with kInvalidArgument on a dangling/out-of-range OID
  /// and with kStorageFault when the fault policy trips on a charged read.
  /// A null stream bypasses the storage path: no pool access, no fault.
  ///
  /// Thread safety (audited for Exchange workers): population (Create /
  /// SetValue / AddToSet / BuildIndexes) must complete before execution
  /// starts; during execution `objects_`, `object_page_`, `sets_`,
  /// `extents_`, and `indexes_` are immutable, so concurrent Read()s only
  /// share the fault injector and the buffer pool — each internally
  /// synchronized — and each charges its own pipeline's stream. Returned
  /// ObjectData pointers are stable (no eviction of object memory; the
  /// buffer pool only simulates page residency).
  Result<const ObjectData*> Read(Oid oid, SimStream* stream);

  /// Batched read of `n` OIDs into `out[0..n)` — the vectorized scan path.
  /// Objects are clustered by type in creation order, so a scan batch
  /// touches long runs of the same page; this charges ONE buffer-pool
  /// access per such run (a page fetch materializes every object on the
  /// page) instead of one per object, taking the pool mutex once per run.
  /// Page-fault sequence — and therefore misses, simulated I/O time, and
  /// pages_read — is identical to n individual Read() calls; only the hit
  /// counter reflects run-granular accesses. When a fault policy is active
  /// the loop degrades to exactly n individual charged reads so the
  /// injector's every-Nth-access and per-OID semantics stay bit-identical
  /// to the tuple-at-a-time era. Thread-safe (same audit as Read).
  Status ReadMany(const Oid* oids, size_t n, const ObjectData** out,
                  SimStream* stream);

  /// Const access without any simulation accounting (statistics, tests).
  /// Bounds-checked: a dangling OID is kInvalidArgument, never UB.
  Result<const ObjectData*> Peek(Oid oid) const {
    if (!Exists(oid)) {
      return Status::InvalidArgument("peek of invalid oid " +
                                     std::to_string(oid));
    }
    return &objects_[oid];
  }

  PageId PageOf(Oid oid) const;
  /// kInvalidType for a dangling OID.
  TypeId TypeOf(Oid oid) const {
    return Exists(oid) ? objects_[oid].type : kInvalidType;
  }
  bool Exists(Oid oid) const {
    return oid >= 0 && oid < static_cast<Oid>(objects_.size());
  }
  int64_t num_objects() const { return static_cast<Oid>(objects_.size()); }

  /// Members of a collection in storage (page) order.
  Result<const std::vector<Oid>*> CollectionMembers(const CollectionId& id) const;

  /// The dense typed projection of `field` of `type`, built on first use
  /// and cached; null when the field is not projectable (string, ref-set,
  /// or out of range). The returned pointer and its vectors are stable
  /// until the next population write. Thread-safe: Exchange workers race
  /// only on the first use of a column; the build is serialized under a
  /// mutex and later reads see an immutable projection.
  const ColumnProjection* Projection(TypeId type, FieldId field);

  Result<const StoredIndex*> FindIndex(const std::string& name) const;

  // --- simulation accounting ---
  /// The serial pipeline's stream: the executor's drain charges it, and
  /// Exchanges merge their workers' streams into it after the join.
  SimStream& stream() { return stream_; }
  BufferPool& buffer() { return buffer_; }
  const CostModelOptions& timing() const { return options_.timing; }

  /// Clears the serial stream, buffer contents, and fault-injector state
  /// (cold start; a seeded fault policy replays identically).
  void ResetSimulation();

  /// Replaces the fault policy at runtime (ops/testing hook). The injector
  /// restarts from the new policy's seed.
  void SetFaultPolicy(FaultPolicy policy);
  const FaultPolicy& fault_policy() const { return options_.faults; }

 private:
  struct TypePlacement {
    PageId first_page = kInvalidPage;
    PageId current_page = kInvalidPage;
    int64_t bytes_on_current = 0;
  };

  const Catalog* catalog_;
  StoreOptions options_;
  SimStream stream_;
  FaultInjector faults_;
  BufferPool buffer_;

  std::vector<ObjectData> objects_;
  std::vector<PageId> object_page_;
  std::vector<TypePlacement> placement_;  // by type
  PageId next_page_ = 0;

  std::unordered_map<std::string, std::vector<Oid>> sets_;
  std::vector<std::vector<Oid>> extents_;  // by type
  std::vector<StoredIndex> indexes_;

  /// Lazily built column projections, keyed by (type, field). Population
  /// writes clear the cache (projections are rebuilt on next use).
  Mutex columns_mu_{lock_rank::kStoreColumns};
  std::map<std::pair<TypeId, FieldId>, std::unique_ptr<ColumnProjection>>
      columns_ GUARDED_BY(columns_mu_);

  void InvalidateColumns();
};

}  // namespace oodb

#endif  // OODB_STORAGE_OBJECT_STORE_H_
