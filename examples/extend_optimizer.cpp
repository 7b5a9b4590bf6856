// The research-workbench face of the optimizer (paper §1 "Extensibility"):
// switch individual rules on and off, change the cost model, and enable
// extension algorithms/properties — watching how plans change, exactly the
// experimentation loop the paper performs in Section 4.
#include <cstdio>

#include "src/oodb.h"
#include "src/workloads/paper_queries.h"

using namespace oodb;

namespace {

void Plan(const PaperDb& db, const char* title, int query,
          OptimizerOptions opts) {
  std::printf("\n==== %s ====\n", title);
  QueryContext ctx;
  auto logical = BuildPaperQuery(query, db, &ctx);
  if (!logical.ok()) return;
  Optimizer optimizer(&db.catalog, std::move(opts));
  auto r = optimizer.Optimize(**logical, &ctx);
  if (!r.ok()) {
    std::printf("no plan: %s\n", r.status().ToString().c_str());
    return;
  }
  std::printf("%scost %.2f s | %d logical exprs, %d alternatives, %d groups\n",
              PrintPlan(*r->plan, ctx).c_str(), r->cost.total(),
              r->stats.logical_mexprs, r->stats.phys_alternatives,
              r->stats.groups);
}

}  // namespace

int main() {
  PaperDb db = MakePaperCatalog();

  std::printf("Every rule is an object registered with the search engine;\n"
              "OptimizerOptions::disabled_rules switches them off by name —\n"
              "the mechanism behind all of the paper's ablations.\n");

  Plan(db, "Query 1, everything enabled", 1, {});

  {
    OptimizerOptions opts;
    opts.disabled_rules = {kRuleMatToJoin};
    Plan(db, "Query 1 without the Mat->Join rule (no set-matching plans)", 1,
         opts);
  }
  {
    OptimizerOptions opts;
    opts.disabled_rules = {kImplAssembly, kEnforcerAssembly};
    Plan(db, "Query 1 without assembly at all (joins must cover every link"
             " — impossible for extent-less Plant)", 1, opts);
  }
  {
    OptimizerOptions opts;
    opts.cost.random_io_s = 0.001;  // pretend we bought solid-state disks
    Plan(db, "Query 1 with 20x cheaper random I/O (pointer chasing wins "
             "ground)", 1, opts);
  }
  {
    OptimizerOptions opts;
    opts.enable_warm_start_assembly = true;
    opts.disabled_rules = {kRuleJoinCommute, kRuleMatToJoin};
    Plan(db, "Query 1, pointer-chasing config + warm-start assembly "
             "(paper Lesson 7)", 1, opts);
  }
  {
    OptimizerOptions opts;
    opts.enable_merge_join = true;
    opts.disabled_rules = {kImplHybridHashJoin, kImplPointerJoin};
    std::printf("\n==== Value join forced onto MergeJoin + Sort enforcer "
                "====\n");
    QueryContext ctx;
    ctx.catalog = &db.catalog;
    auto logical = ParseAndSimplify(
        "SELECT e.name FROM Employee e IN Employees, Country n IN Country "
        "WHERE e.name == n.name;",
        &ctx);
    Optimizer optimizer(&db.catalog, opts);
    auto r = optimizer.Optimize(**logical, &ctx);
    if (r.ok()) {
      std::printf("%scost %.2f s\n", PrintPlan(*r->plan, ctx).c_str(),
                  r->cost.total());
    }
  }
  {
    // The search trace records rule firings and winner replacements; a
    // small ring keeps only the newest events (the header counts them all).
    OptTrace trace(/*capacity=*/24);
    OptimizerOptions opts;
    opts.trace_sink = &trace;
    Plan(db, "Query 3 (property-driven search, with its search trace)", 3,
         opts);
    std::printf("%s", trace.ToText().c_str());
  }
  return 0;
}
