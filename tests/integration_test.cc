// End-to-end plan-equivalence property tests: every optimizer configuration
// must produce plans that return the *same results* when executed — only the
// costs may differ. Each (query, configuration) pair is one line of the
// differential harness's deck (tests/harness.h), checked against the
// reference evaluator.
#include <gtest/gtest.h>

#include "tests/harness.h"

namespace oodb {
namespace {

const char* const kConfigs[] = {
    "",      "off=join-commutativity", "off=collapse-to-index-scan",
    "off=mat-to-join", "window=1", "warm", "merge", "off=hybrid-hash-join",
};

const char* const kQueries[] = {
    // Query 1 (Dallas plants).
    "SELECT e.name, e.job.name, e.dept.name FROM Employee e IN Employees "
    "WHERE e.dept.plant.location == \"Dallas\";",
    // Query 2 (mayor Joe).
    "SELECT c.name FROM City c IN Cities WHERE c.mayor.name == \"Joe\";",
    // Query 3 (mayor age in output).
    "SELECT c.mayor.age, c.name FROM City c IN Cities "
    "WHERE c.mayor.name == \"Joe\";",
    // Query 4 variant (time value that exists at this scale).
    "SELECT t.name FROM Task t IN Tasks, Employee e IN t.team_members "
    "WHERE e.name == \"Fred\" && t.time == 5;",
    // Explicit join with a local predicate.
    "SELECT e.name, d.name FROM Employee e IN Employees, "
    "Department d IN Department WHERE e.dept == d && d.floor == 3;",
    // Range + path + reverse traversal potential.
    "SELECT e.name FROM Employee e IN Employees "
    "WHERE e.job.name == \"Job7\" && e.age >= 30;",
};

class PlanEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlanEquivalenceTest, SameResultsAsAllRules) {
  auto [query, config] = GetParam();
  testing::ExpectLine(std::string(kConfigs[config]) + " | " + kQueries[query]);
}

INSTANTIATE_TEST_SUITE_P(
    QueriesByConfigs, PlanEquivalenceTest,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Range(0, static_cast<int>(std::size(kConfigs)))),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "q" + std::to_string(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace oodb
