// CAD workload (OO7-inspired): deep composition hierarchies — the
// complex-object world the paper's assembly operator was designed for.
// Optimizes and runs exact-match, documentation path-index, component-
// comparison, and full design-tree traversal queries.
#include <cstdio>

#include "src/oodb.h"
#include "src/workloads/oo7.h"

using namespace oodb;

namespace {

/// Parses, optimizes and executes one query, printing each stage. Returns
/// false (after printing the error) if any stage fails.
bool RunQuery(Oo7Db* db, ObjectStore* store, const char* title,
              const std::string& text) {
  std::printf("\n==== %s ====\n%s\n", title, text.c_str());
  QueryContext ctx;
  ctx.catalog = &db->catalog;
  auto logical = ParseAndSimplify(text, &ctx);
  if (!logical.ok()) {
    std::printf("  error: %s\n", logical.status().ToString().c_str());
    return false;
  }
  Optimizer optimizer(&db->catalog);
  auto planned = optimizer.Optimize(**logical, &ctx);
  if (!planned.ok()) {
    std::printf("  error: %s\n", planned.status().ToString().c_str());
    return false;
  }
  std::printf("plan (est. %.3f s):\n%s", planned->cost.total(),
              PrintPlan(*planned->plan, ctx).c_str());
  auto stats = ExecutePlan(*planned->plan, store, &ctx);
  if (!stats.ok()) {
    std::printf("  execute error: %s\n", stats.status().ToString().c_str());
    return false;
  }
  std::printf("-> %lld rows, %lld pages read, simulated %.3f s\n",
              static_cast<long long>(stats->rows),
              static_cast<long long>(stats->pages_read), stats->sim_total_s());
  return true;
}

}  // namespace

int main() {
  Oo7Options options;  // the "small" OO7 configuration
  auto instance = MakeOo7(options);
  if (!instance.ok()) {
    std::fprintf(stderr, "%s\n", instance.status().ToString().c_str());
    return 1;
  }
  Oo7Db* db = instance->db.get();
  ObjectStore* store = instance->store.get();
  std::printf("OO7 'small': %lld objects — %zu modules, %zu assemblies, "
              "%zu composite parts, %zu atomic parts\n",
              static_cast<long long>(store->num_objects()),
              db->modules.size(), db->base_assemblies.size(),
              db->composite_parts.size(), db->atomic_parts.size());

  bool ok = true;
  ok &= RunQuery(db, store, "Exact-match atomic part lookup (OO7 Q1)",
                 Oo7QueryExactMatch(123));

  ok &= RunQuery(db, store, "Composite parts by document title (path index)",
                 Oo7QueryByDocTitle("Doc3"));

  ok &= RunQuery(db, store,
                 "Assemblies using components newer than themselves (OO7 Q5)",
                 kOo7QueryNewerComponents);

  ok &= RunQuery(db, store,
                 "Full design traversal (OO7 T1 style, 3 unnest levels)",
                 kOo7QueryTraversal);

  ok &= RunQuery(db, store, "Out-of-date assemblies below build date 10",
                 "SELECT b.id, b.buildDate FROM BaseAssembly b "
                 "IN BaseAssemblies WHERE b.buildDate < 10;");
  return ok ? 0 : 1;
}
