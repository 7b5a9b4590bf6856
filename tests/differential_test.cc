// The differential harness (tests/harness.h) in oodb_tests: the serial
// slices of the seeded sweep, the pinned deck, oracle 1 one rule at a time,
// and oracle 2's equality on the pure join chains.
#include <gtest/gtest-spi.h>

#include "tests/harness.h"

namespace oodb {
namespace {

using testing::ExpectLine;
using testing::ExpectSeed;
using testing::Slice;

/// Three ranges and no join conjunct: the join order pairs whole
/// components through cartesian products.
constexpr const char* kCartesianTasks =
    "SELECT t3.name FROM Task t1 IN Tasks, Task t3 IN Tasks, Task t4 IN Tasks "
    "WHERE t4.time == 2;";

/// The paper queries, E12 and two chains: lines every oracle holds on. The
/// chains' results run to 10^5 rows and beyond, so they skip execution (the
/// selective chain of Deck() covers oracle 3).
std::vector<std::string> PaperDeck() {
  return {
      std::string("| ") + kQuery1Text,
      std::string("| ") + kQuery2Text,
      std::string("| ") + kQuery3Text,
      "| SELECT t FROM Task t IN Tasks, Employee e IN t.team_members "
      "WHERE e.name == \"Fred\" && t.time == 5;",
      std::string("| ") + kComplexQueryText,
      "noexec | " + JoinChainQueryText(3),
      "noexec | " + JoinChainQueryText(4, 1),
  };
}

/// The join-order rule's stress lines: the two-path query, the 5-range
/// chain with a path, and a cartesian product.
std::vector<std::string> JoinOrderDeck() {
  return {
      "noexec | " + JoinChainQueryText(4, 2),
      "noexec | " + JoinChainQueryText(5, 1),
      std::string("noexec | ") + kCartesianTasks,
  };
}

/// The lines oracle 1 ablates every rule on.
std::vector<std::string> OptimizerDeck() {
  std::vector<std::string> deck = PaperDeck();
  for (std::string& line : JoinOrderDeck()) deck.push_back(std::move(line));
  return deck;
}

std::vector<std::string> Deck() {
  std::vector<std::string> deck = PaperDeck();
  deck.push_back("| " + JoinChainQueryText(4, 1,
                                           " && e2.age == 30 && e3.age == 40 "
                                           "&& e4.name == \"E3\""));
  // A graph on which select-join-pushdown once stacked a Select over a
  // group holding only Selects: the verifier's select-canonical checks
  // that no rule does.
  deck.push_back(
      "| SELECT n1.name FROM Country n1 IN Country, City c2 IN Cities, "
      "Country n3 IN Country, City c4 IN Cities WHERE "
      "c2.country == n1 && c2.country == n3 && c4.country == n3 && "
      "n3.name == \"Country2\" && c4.country.name == \"Country0\";");
  for (std::string& line : JoinOrderDeck()) deck.push_back(std::move(line));
  // The Session retry ladder survives a transient worker kill, serially
  // (the drain loop is worker 0) and under a dop-4 Exchange: the kill ends
  // the first attempt, a later rung returns the reference rows.
  for (const char* par : {"", "dop=4 "}) {
    deck.push_back(std::string("db=oo7 ") + par +
                   "session=3 xf=fail_worker=" + (*par != '\0' ? "1" : "0") +
                   ",fail_after_batches=1,fail_attempts=1 | SELECT a.id FROM "
                   "AtomicPart a IN AtomicParts WHERE a.x > a.y;");
  }
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

TEST(DeckLineTest, UnknownRuleNamesFailTheLine) {
  // A deleted or misspelt rule name would otherwise disable nothing.
  EXPECT_FATAL_FAILURE(
      ExpectLine("off=join-order,join-comutativity | SELECT c FROM City c IN "
                 "Cities;"),
      "unknown rule name: join-comutativity");
  EXPECT_FATAL_FAILURE(
      ExpectLine("ablate=join-orders | SELECT c FROM City c IN Cities;"),
      "unknown rule name: join-orders");
}

// Oracle 1 one rule at a time, over the deck and 10 generated queries.
class RuleAblationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RuleAblationTest, DisablingARuleNeverImprovesCost) {
  testing::ExpectAblationNeverCheaper(GetParam(), OptimizerDeck(), 10);
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, RuleAblationTest,
    ::testing::ValuesIn(testing::kAblatedRules));

TEST(JoinOrderOracleTest, CartesianProductsReorderAcrossComponents) {
  // FROM order and commutativity alone reach 1,182.59 s.
  auto [memo, dp] = testing::MemoAndDpCost(std::string("| ") + kCartesianTasks);
  ASSERT_TRUE(dp.has_value());
  EXPECT_LE(memo, 1156.187920 * (1 + 1e-9));
  EXPECT_NEAR(memo, dp.value_or(0), 1e-9 * memo);
}

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
