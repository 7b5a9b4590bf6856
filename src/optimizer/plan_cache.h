// A thread-safe, invalidation-correct plan cache: the serving-stack answer
// to the paper's §1 performance goal. Repeated queries skip the Volcano
// search entirely — the dominant cost for warm traffic is *not searching at
// all*. Entries are keyed by (canonical query fingerprint, required
// physical properties, optimizer-options hash) and carry the catalog
// stats_version they were optimized under; a version mismatch invalidates
// the entry on contact, so ANALYZE, index creation/toggle, and cardinality
// updates can never leak a stale plan.
//
// Concurrency: one mutex over one exact LRU (recency list + hash index),
// like the storage layer's BufferPool, shared safely by many sessions.
// Cached plans are immutable shared_ptr trees, handed out without copying;
// hit verification and literal rebinding happen outside the lock.
#ifndef OODB_OPTIMIZER_PLAN_CACHE_H_
#define OODB_OPTIMIZER_PLAN_CACHE_H_

#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/optimizer.h"
#include "src/query/fingerprint.h"

namespace oodb {

/// Cache key: what must match *exactly* for a plan to be reusable. The
/// catalog statistics version is deliberately not part of the key — it
/// lives in the entry, so a probe that meets a stale entry reclaims the
/// slot instead of leaving dead versions to age out of the LRU.
struct PlanCacheKey {
  Fingerprint fp;
  PhysProps required;
  uint64_t options_hash = 0;

  bool operator==(const PlanCacheKey& o) const {
    return fp == o.fp && required == o.required &&
           options_hash == o.options_hash;
  }
};

struct PlanCacheKeyHash {
  size_t operator()(const PlanCacheKey& k) const {
    uint64_t h = k.fp.lo ^ (k.fp.hi * 0x9e3779b97f4a7c15ull);
    h ^= k.required.in_memory.bits() * 0xff51afd7ed558ccdull;
    for (const SortKey& sk : k.required.sort.keys) {
      uint64_t kh = (static_cast<uint64_t>(sk.binding) << 33) ^
                    (static_cast<uint64_t>(static_cast<uint32_t>(sk.field))
                     << 1) ^
                    (sk.desc ? 1u : 0u);
      h = (h ^ kh) * 0x100000001b3ull;  // FNV-style fold per key
    }
    h ^= static_cast<uint64_t>(k.required.limit) * 0x2545f4914f6cdd1dull;
    h ^= k.options_hash * 0xc4ceb9fe1a85ec53ull;
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

/// Cumulative cache counters (monotonic over the cache's lifetime).
struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;      ///< LRU capacity evictions
  int64_t invalidations = 0;  ///< entries dropped on stats_version mismatch
  int64_t entries = 0;        ///< currently resident
};

/// One immutable cached optimization result, plus what a hit needs to
/// verify structure and rebind literals.
struct CachedPlan {
  PlanNodePtr plan;
  Cost cost;
  SearchStats stats;           ///< effort of the search that built the plan
  uint64_t stats_version = 0;  ///< catalog version the plan was costed under
  LogicalExprPtr tree;         ///< the simplified tree that was optimized
  BindingTable bindings;       ///< its binding signatures (hit verification)
  std::vector<Value> literals; ///< parameterized-out literals, canonical order
};

class PlanCache {
 public:
  /// Holds up to `capacity` (at least 1) entries; beyond it, Insert evicts
  /// the least recently used one.
  explicit PlanCache(size_t capacity);

  /// Probes for `key`. On a hit whose entry matches `stats_version` and
  /// structurally matches the probing query (`tree` / `bindings` — this
  /// verification makes fingerprint collisions a miss, never a wrong
  /// plan), returns the winning plan with comparison literals rebound to
  /// `literals`. Stale entries are dropped and counted as invalidations.
  /// Every hit moves its entry to the front of the LRU order.
  std::optional<OptimizedQuery> Lookup(const PlanCacheKey& key,
                                       uint64_t stats_version,
                                       const LogicalExpr& tree,
                                       const BindingTable& bindings,
                                       const std::vector<Value>& literals);

  /// Inserts (or replaces) the entry for `key`, evicting the least recently
  /// used entry beyond capacity.
  void Insert(const PlanCacheKey& key,
              std::shared_ptr<const CachedPlan> entry);

  PlanCacheStats stats() const;
  size_t capacity() const { return capacity_; }
  void Clear();

 private:
  struct Slot {
    PlanCacheKey key;
    std::shared_ptr<const CachedPlan> entry;
  };
  using SlotList = std::list<Slot>;

  void EraseLocked(SlotList::iterator it) REQUIRES(mu_);

  const size_t capacity_;
  mutable Mutex mu_{lock_rank::kPlanCache};
  SlotList lru_ GUARDED_BY(mu_);  ///< front = most recently used
  std::unordered_map<PlanCacheKey, SlotList::iterator, PlanCacheKeyHash>
      index_ GUARDED_BY(mu_);
  PlanCacheStats stats_ GUARDED_BY(mu_);  ///< `entries` is filled by stats()
};

}  // namespace oodb

#endif  // OODB_OPTIMIZER_PLAN_CACHE_H_
