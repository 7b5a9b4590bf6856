// The differential harness (tests/harness.h) in oodb_tests: the serial
// slices of the seeded sweep, the pinned deck, oracle 1 one rule at a time,
// and oracle 2's equality on the pure join chains.
#include "tests/harness.h"

namespace oodb {
namespace {

using testing::ExpectLine;
using testing::ExpectSeed;
using testing::Slice;

/// `JoinChainQueryText(width)` plus the path conjunct `e1.dept.floor == 3`
/// and `extra`.
std::string ChainWithPath(int width, const std::string& extra = "") {
  std::string q = JoinChainQueryText(width);
  q.insert(q.size() - 1, " && e1.dept.floor == 3" + extra);
  return q;
}

/// Lines every oracle holds on; the chains' results run to 10^5 rows and
/// beyond, so they skip execution (the selective chain of Deck() covers
/// oracle 3).
std::vector<std::string> OptimizerDeck() {
  return {
      std::string("| ") + kQuery1Text,
      std::string("| ") + kQuery2Text,
      std::string("| ") + kQuery3Text,
      "| SELECT t FROM Task t IN Tasks, Employee e IN t.team_members "
      "WHERE e.name == \"Fred\" && t.time == 5;",
      std::string("| ") + kComplexQueryText,
      "noexec | " + JoinChainQueryText(3),
      "noexec | " + ChainWithPath(4),
  };
}

std::vector<std::string> Deck() {
  std::vector<std::string> deck = OptimizerDeck();
  deck.push_back("| " + ChainWithPath(4, " && e2.age == 30 && e3.age == 40 && "
                                         "e4.name == \"E3\""));
  // select-join-pushdown stacked a Select over a Select-only group when
  // select-join-absorb was off (the verifier's select-canonical).
  deck.push_back(
      "off=select-join-absorb | SELECT n1.name FROM Country n1 IN Country, "
      "City c2 IN Cities, Country n3 IN Country, City c4 IN Cities WHERE "
      "c2.country == n1 && c2.country == n3 && c4.country == n3 && "
      "n3.name == \"Country2\" && c4.country.name == \"Country0\";");
  return deck;
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, OptimizedPlanMatchesReferenceSemantics) {
  ExpectSeed(Slice::kSerial, GetParam());
}

TEST_P(FuzzTest, FaultsAndBudgetsYieldOnlyTypedOutcomes) {
  ExpectSeed(Slice::kFaults, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 150));

class DeckTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DeckTest, HoldsUnderEveryOracle) { ExpectLine(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Pinned, DeckTest, ::testing::ValuesIn(Deck()),
                         [](const auto& info) {
                           return "L" + std::to_string(info.index);
                         });

// Oracle 1 one rule at a time, over the deck and 10 generated queries.
class RuleAblationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RuleAblationTest, DisablingARuleNeverImprovesCost) {
  testing::ExpectAblationNeverCheaper(GetParam(), OptimizerDeck(), 10);
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, RuleAblationTest,
    ::testing::Values(kRuleJoinCommute, kRuleJoinAssoc, kRuleMatToJoin,
                      kRuleMatMatCommute, kRuleSelectMatCommute,
                      kRuleMatSelectCommute, kRuleSelectUnnestCommute,
                      kRuleMatUnnestCommute, kRuleUnnestMatCommute,
                      kRuleSelectJoinPush, kRuleSelectJoinAbsorb,
                      kRuleMatJoinPush, kRuleMatJoinPull, kImplIndexScan,
                      kImplPointerJoin, kImplHybridHashJoin,
                      kEnforcerAssembly));

TEST(JoinOrderOracleTest, DpEqualsTheMemoOnJoinChains) {
  for (int width = 2; width <= 5; ++width) {
    const std::string line = "| " + JoinChainQueryText(width);
    auto [memo, dp] = testing::MemoAndDpCost(line);
    ASSERT_TRUE(dp.has_value()) << line;
    EXPECT_NEAR(memo, dp.value_or(0), 1e-9 * memo) << line;
  }
}

}  // namespace
}  // namespace oodb
