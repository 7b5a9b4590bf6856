#include "src/optimizer/plan_cache.h"

#include <algorithm>
#include <iterator>

#include "src/common/metrics.h"

namespace oodb {

namespace {

/// Global (cross-cache) counters mirroring the per-cache stats, so the
/// metrics snapshot sees aggregate cache behavior without enumerating
/// caches. Resolved once; registered counters are never deallocated.
struct CacheMetrics {
  Counter* hits;
  Counter* misses;
  Counter* evictions;
  Counter* invalidations;

  static const CacheMetrics& Get() {
    static const CacheMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      CacheMetrics m;
      m.hits = r.counter("oodb_plan_cache_hits_total",
                         "Plan-cache lookups served a plan.");
      m.misses = r.counter("oodb_plan_cache_misses_total",
                           "Plan-cache lookups that fell through.");
      m.evictions = r.counter("oodb_plan_cache_evictions_total",
                              "Entries evicted by LRU capacity pressure.");
      m.invalidations =
          r.counter("oodb_plan_cache_invalidations_total",
                    "Entries dropped for stale catalog statistics.");
      return m;
    }();
    return m;
  }
};

/// Rewrites every scalar expression embedded in `node` through `subst`,
/// sharing untouched subtrees. Costs, cardinalities, and delivered
/// properties are kept from the cached plan: within one selectivity bucket
/// they are the approximation the cache trades for not searching.
PlanNodePtr RebindPlan(const PlanNodePtr& node,
                       const ExprSubstitution& subst) {
  std::vector<PlanNodePtr> children;
  children.reserve(node->children.size());
  bool changed = false;
  for (const PlanNodePtr& c : node->children) {
    PlanNodePtr r = RebindPlan(c, subst);
    changed |= (r != c);
    children.push_back(std::move(r));
  }
  ScalarExprPtr index_pred = SubstituteExpr(node->op.index_pred, subst);
  ScalarExprPtr pred = SubstituteExpr(node->op.pred, subst);
  std::vector<ScalarExprPtr> emit;
  emit.reserve(node->op.emit.size());
  bool emit_changed = false;
  for (const ScalarExprPtr& e : node->op.emit) {
    ScalarExprPtr s = SubstituteExpr(e, subst);
    emit_changed |= (s != e);
    emit.push_back(std::move(s));
  }
  if (!changed && index_pred == node->op.index_pred &&
      pred == node->op.pred && !emit_changed) {
    return node;
  }
  auto out = std::make_shared<PlanNode>(*node);
  out->children = std::move(children);
  out->op.index_pred = std::move(index_pred);
  out->op.pred = std::move(pred);
  out->op.emit = std::move(emit);
  return out;
}

}  // namespace

PlanCache::PlanCache(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

void PlanCache::EraseLocked(SlotList::iterator it) {
  index_.erase(it->key);
  lru_.erase(it);
}

std::optional<OptimizedQuery> PlanCache::Lookup(
    const PlanCacheKey& key, uint64_t stats_version, const LogicalExpr& tree,
    const BindingTable& bindings, const std::vector<Value>& literals) {
  std::shared_ptr<const CachedPlan> entry;
  {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end() &&
        it->second->entry->stats_version != stats_version) {
      // Stale statistics: reclaim the slot; the caller re-optimizes and
      // re-inserts under the current version.
      EraseLocked(it->second);
      ++stats_.invalidations;
      CacheMetrics::Get().invalidations->Increment();
    } else if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      entry = it->second->entry;
    }
    ++(entry != nullptr ? stats_.hits : stats_.misses);
  }

  // Verify and rebind outside the lock; entries are immutable once stored.
  ExprSubstitution subst;
  if (entry != nullptr &&
      !MatchParameterizedTrees(*entry->tree, entry->bindings, tree, bindings,
                               &subst)) {
    // Fingerprint collision (or a caller bug): never serve the plan, and
    // count the probe as the miss it is.
    MutexLock lock(mu_);
    --stats_.hits;
    ++stats_.misses;
    entry = nullptr;
  }
  if (entry == nullptr) {
    CacheMetrics::Get().misses->Increment();
    return std::nullopt;
  }
  OptimizedQuery out;
  out.plan = entry->literals == literals ? entry->plan
                                         : RebindPlan(entry->plan, subst);
  out.cost = entry->cost;
  out.stats = entry->stats;
  CacheMetrics::Get().hits->Increment();
  return out;
}

void PlanCache::Insert(const PlanCacheKey& key,
                       std::shared_ptr<const CachedPlan> entry) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // A concurrent session optimized the same query; keep the newer result.
    it->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Slot{key, std::move(entry)});
  index_.emplace(key, lru_.begin());
  if (lru_.size() > capacity_) {
    EraseLocked(std::prev(lru_.end()));
    ++stats_.evictions;
    CacheMetrics::Get().evictions->Increment();
  }
}

PlanCacheStats PlanCache::stats() const {
  MutexLock lock(mu_);
  PlanCacheStats s = stats_;
  s.entries = static_cast<int64_t>(lru_.size());
  return s;
}

void PlanCache::Clear() {
  MutexLock lock(mu_);
  lru_.clear();
  index_.clear();
}

}  // namespace oodb
