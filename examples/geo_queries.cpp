// Geographic-domain workload: cities, capitals, countries, mayors,
// presidents — the paper's path-expression examples (Figure 2, Queries 2-3)
// and conjunctions over them.
#include <cstdio>

#include "src/oodb.h"

using namespace oodb;

namespace {

/// Parses, optimizes and executes one query, printing each stage. Returns
/// false (after printing the error) if any stage fails.
bool Show(const PaperDb& db, ObjectStore* store, const char* title,
          const char* text) {
  std::printf("\n==== %s ====\n%s\n", title, text);
  QueryContext ctx;
  ctx.catalog = &db.catalog;
  auto logical = ParseAndSimplify(text, &ctx);
  if (!logical.ok()) {
    std::printf("  error: %s\n", logical.status().ToString().c_str());
    return false;
  }
  std::printf("simplified:\n%s", PrintLogicalTree(**logical, ctx).c_str());
  Optimizer optimizer(&db.catalog);
  auto optimized = optimizer.Optimize(**logical, &ctx);
  if (!optimized.ok()) {
    std::printf("  error: %s\n", optimized.status().ToString().c_str());
    return false;
  }
  std::printf("plan (cost %.3f s):\n%s", optimized->cost.total(),
              PrintPlan(*optimized->plan, ctx).c_str());
  auto stats = ExecutePlan(*optimized->plan, store, &ctx);
  if (!stats.ok()) {
    std::printf("  execute error: %s\n", stats.status().ToString().c_str());
    return false;
  }
  std::printf("-> %lld rows\n", static_cast<long long>(stats->rows));
  return true;
}

}  // namespace

int main() {
  PaperDb db = MakePaperCatalog(/*scale=*/0.05);
  ObjectStore store(&db.catalog);
  auto data = GeneratePaperData(db, &store);
  if (!data.ok()) {
    std::fprintf(stderr, "datagen: %s\n", data.status().ToString().c_str());
    return 1;
  }

  bool ok = true;
  ok &= Show(db, &store, "Cities with mayor Joe (paper Query 2: path index)",
             "SELECT c.name FROM City c IN Cities "
             "WHERE c.mayor.name == \"Joe\";");

  ok &= Show(db, &store,
             "Mayor ages too (paper Query 3: present-in-memory enforcer)",
             "SELECT c.mayor.age, c.name FROM City c IN Cities "
             "WHERE c.mayor.name == \"Joe\";");

  ok &= Show(db, &store,
             "Cities whose mayor is also the country's president (Figure 2)",
             "SELECT c.name FROM City c IN Cities "
             "WHERE c.mayor == c.country.president;");

  ok &= Show(db, &store, "Capitals of populous countries via subtype range",
             "SELECT k.name, k.country.name FROM City k IN Capitals "
             "WHERE k.population >= 1000000;");

  ok &= Show(db, &store, "Big cities that Joe runs",
             "SELECT c.name FROM City c IN Cities "
             "WHERE c.population >= 500000 && c.mayor.name == \"Joe\";");
  return ok ? 0 : 1;
}
