// The four queries of the paper's experimental evaluation (§4), in ZQL text
// form, plus helpers that parse and simplify them against a PaperDb. Shared
// by the test suite and the benchmark harness.
#ifndef OODB_WORKLOADS_PAPER_QUERIES_H_
#define OODB_WORKLOADS_PAPER_QUERIES_H_

#include <string>

#include "src/catalog/paper_catalog.h"
#include "src/query/simplify.h"

namespace oodb {

/// Query 1 (paper Figure 5): name, job name, and department name of all
/// employees who work in a plant in Dallas.
inline constexpr const char* kQuery1Text =
    "SELECT e.name, e.job.name, e.dept.name "
    "FROM Employee e IN Employees "
    "WHERE e.dept.plant.location == \"Dallas\";";

/// Query 2 (paper Figure 8): cities whose mayor is called Joe.
inline constexpr const char* kQuery2Text =
    "SELECT c FROM City c IN Cities WHERE c.mayor.name == \"Joe\";";

/// Query 3 (paper Figure 10): Query 2 plus the mayor's age in the result —
/// which forces the mayor component into memory.
inline constexpr const char* kQuery3Text =
    "SELECT c.mayor.age, c.name "
    "FROM City c IN Cities WHERE c.mayor.name == \"Joe\";";

/// Query 4 (paper Figure 12): tasks with a completion time of 100 hours and
/// a team member called Fred.
inline constexpr const char* kQuery4Text =
    "SELECT t FROM Task t IN Tasks, Employee e IN t.team_members "
    "WHERE e.name == \"Fred\" && t.time == 100;";

/// E12's "moderately complex" query: three ranges, a set-valued path, and
/// five predicates — a superset of every paper query's features.
inline constexpr const char* kComplexQueryText =
    "SELECT e.name, d.name, t.name "
    "FROM Employee e IN Employees, Department d IN Department, "
    "     Task t IN Tasks, Employee m IN t.team_members "
    "WHERE e.dept == d && d.floor == 3 && e.age >= 32 && "
    "      t.time == 100 && m.name == e.name;";

/// A chain of `width` Employee ranges joined by `e1.name == eK.name`: the
/// stress case for exploration growth. `paths` (0-2) reference paths join
/// the WHERE clause, `e1.dept.floor == 3` and then `e2.job.name == "x"`,
/// each a Mat the join order places ((4, 2) is the two-path query), and
/// then `extra` (conjuncts, each starting with " && ").
std::string JoinChainQueryText(int width, int paths = 0,
                               const std::string& extra = "");

/// Parses and simplifies paper query `n` (1-4). `ctx` must be fresh and
/// reference `db.catalog`.
Result<LogicalExprPtr> BuildPaperQuery(int n, const PaperDb& db,
                                       QueryContext* ctx);

}  // namespace oodb

#endif  // OODB_WORKLOADS_PAPER_QUERIES_H_
