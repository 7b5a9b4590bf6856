// Company-domain workload: the motivating scenario of the paper's Query 1 —
// employees, departments, plants, jobs, tasks. Shows path-expression
// optimization (Mat -> Join, reverse link traversal), existential
// subqueries, and explicit joins, each optimized and executed.
#include <cstdio>

#include "src/oodb.h"

using namespace oodb;

namespace {

/// Parses, optimizes and executes one query, printing each stage. Returns
/// false (after printing the error) if any stage fails.
bool RunQuery(const PaperDb& db, ObjectStore* store, const char* title,
              const char* text) {
  std::printf("\n==== %s ====\n%s\n", title, text);
  QueryContext ctx;
  ctx.catalog = &db.catalog;
  auto logical = ParseAndSimplify(text, &ctx);
  if (!logical.ok()) {
    std::printf("  simplify error: %s\n", logical.status().ToString().c_str());
    return false;
  }
  Optimizer optimizer(&db.catalog);
  auto optimized = optimizer.Optimize(**logical, &ctx);
  if (!optimized.ok()) {
    std::printf("  optimize error: %s\n",
                optimized.status().ToString().c_str());
    return false;
  }
  std::printf("plan (cost %.3f s):\n%s", optimized->cost.total(),
              PrintPlan(*optimized->plan, ctx).c_str());
  auto stats = ExecutePlan(*optimized->plan, store, &ctx);
  if (!stats.ok()) {
    std::printf("  execute error: %s\n", stats.status().ToString().c_str());
    return false;
  }
  std::printf("-> %lld rows (simulated %.3f s)",
              static_cast<long long>(stats->rows), stats->sim_total_s());
  if (!stats->sample_rows.empty()) {
    std::printf(", e.g.");
    for (size_t i = 0; i < std::min<size_t>(2, stats->sample_rows.size()); ++i) {
      std::printf(" (");
      for (size_t j = 0; j < stats->sample_rows[i].size(); ++j) {
        std::printf("%s%s", j ? ", " : "",
                    stats->sample_rows[i][j].ToString().c_str());
      }
      std::printf(")");
    }
  }
  std::printf("\n");
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
  ok &= RunQuery(db, &store,
                 "Employees working in a Dallas plant (paper Query 1)",
                 "SELECT e.name, e.job.name, e.dept.name "
                 "FROM Employee e IN Employees "
                 "WHERE e.dept.plant.location == \"Dallas\";");

  ok &= RunQuery(db, &store, "Senior employees on floor 3 (explicit join)",
                 "SELECT e.name, d.name "
                 "FROM Employee e IN Employees, Department d IN Department "
                 "WHERE e.dept == d && d.floor == 3 && e.age >= 45;");

  ok &= RunQuery(db, &store, "Tasks with a team member named Fred (EXISTS)",
                 "SELECT t.name FROM Task t IN Tasks "
                 "WHERE t.time == 7 && EXISTS (SELECT m FROM Employee m IN "
                 "t.team_members WHERE m.name == \"Fred\");");

  ok &= RunQuery(db, &store, "Task rosters via a set-valued path range",
                 "SELECT t.name, m.name "
                 "FROM Task t IN Tasks, Employee m IN t.team_members "
                 "WHERE t.time == 3;");

  ok &= RunQuery(db, &store,
                 "Well-paid employees by job (reverse link traversal)",
                 "SELECT e.name, e.job.name FROM Employee e IN Employees "
                 "WHERE e.job.name == \"Job7\" && e.salary >= 100000.0;");
  return ok ? 0 : 1;
}
