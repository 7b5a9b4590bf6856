#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/catalog/paper_catalog.h"
#include "src/cost/cost_model.h"
#include "src/physical/algorithms.h"

namespace oodb {
namespace {

TEST(CostTest, TotalAndArithmetic) {
  Cost a{1.0, 2.0};
  Cost b{0.5, 0.25};
  EXPECT_DOUBLE_EQ(a.total(), 3.0);
  Cost c = a + b;
  EXPECT_DOUBLE_EQ(c.io_s, 1.5);
  EXPECT_DOUBLE_EQ(c.cpu_s, 2.25);
  a += b;
  EXPECT_DOUBLE_EQ(a.total(), c.total());
  EXPECT_TRUE(b < c);
  EXPECT_TRUE(Cost::Io(1.0) < Cost::Infinite());
}

TEST(CostTest, ToStringMentionsComponents) {
  std::string s = Cost{1.5, 0.5}.ToString();
  EXPECT_NE(s.find("io"), std::string::npos);
  EXPECT_NE(s.find("cpu"), std::string::npos);
}

TEST(CostModelTest, SequentialCheaperThanRandom) {
  CostModel cm;
  EXPECT_LT(cm.SeqRead(100).total(), cm.RandomRead(100).total());
}

TEST(CostModelTest, AssemblyDiscountCurve) {
  CostModel cm;
  EXPECT_DOUBLE_EQ(cm.AssemblyDiscount(1), 1.0);
  EXPECT_LT(cm.AssemblyDiscount(8), 1.0);
  EXPECT_GT(cm.AssemblyDiscount(8), cm.AssemblyDiscount(32));
  // Fully realized by window 32 (the calibration point).
  EXPECT_DOUBLE_EQ(cm.AssemblyDiscount(32),
                   cm.opts().assembly_window_discount_floor);
  EXPECT_DOUBLE_EQ(cm.AssemblyDiscount(1024),
                   cm.opts().assembly_window_discount_floor);
}

TEST(CostModelTest, AssemblyBoundedByKnownPopulation) {
  PaperDb db = MakePaperCatalog();
  CostModel cm;
  // Department population is 1000: assembling 50000 references faults at
  // most 1000 times.
  Cost bounded = cm.AssemblyIo(db.catalog, db.department, 50000, 32);
  Cost direct = cm.AssemblyIo(db.catalog, db.department, 1000, 32);
  EXPECT_DOUBLE_EQ(bounded.io_s, direct.io_s);
}

TEST(CostModelTest, AssemblyUnboundedForPlants) {
  PaperDb db = MakePaperCatalog();
  CostModel cm;
  // Plant has no extent: every reference may fault (the paper's Query 1
  // blow-up).
  Cost c = cm.AssemblyIo(db.catalog, db.plant, 50000, 32);
  EXPECT_DOUBLE_EQ(
      c.io_s, 50000 * cm.opts().random_io_s * cm.AssemblyDiscount(32));
}

TEST(CostModelTest, WindowOneCostsFullRandom) {
  PaperDb db = MakePaperCatalog();
  CostModel cm;
  Cost w1 = cm.AssemblyIo(db.catalog, db.plant, 1000, 1);
  EXPECT_DOUBLE_EQ(w1.io_s, 1000 * cm.opts().random_io_s);
}

TEST(CostModelTest, HashJoinOverflowOnlyBeyondMemory) {
  CostModel cm;
  EXPECT_DOUBLE_EQ(cm.HashJoinOverflowIo(1024.0, 1024.0).total(), 0.0);
  double big = cm.opts().memory_bytes * 2;
  EXPECT_GT(cm.HashJoinOverflowIo(big, big).total(), 0.0);
}

TEST(CostModelTest, PagesForMatchesCatalog) {
  PaperDb db = MakePaperCatalog();
  CostModel cm;
  EXPECT_DOUBLE_EQ(cm.PagesFor(db.catalog, db.employee, 50000), 3125);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(db.catalog.PagesFor(db.employee, 50000, 4096)), 3125);
}

TEST(AlgorithmCostTest, FileScanScalesWithPagesAndTuples) {
  PaperDb db = MakePaperCatalog();
  CostModel cm;
  const CollectionInfo* employees = *db.catalog.FindSet("Employees");
  const CollectionInfo* cities = *db.catalog.FindSet("Cities");
  EXPECT_GT(FileScanCost(cm, db.catalog, *employees).total(),
            FileScanCost(cm, db.catalog, *cities).total());
}

TEST(AlgorithmCostTest, ClusteredIndexScanCheaper) {
  PaperDb db = MakePaperCatalog();
  CostModel cm;
  Cost unclustered = IndexScanCost(cm, 100, false, 0, db.catalog, db.city);
  Cost clustered = IndexScanCost(cm, 100, true, 0, db.catalog, db.city);
  EXPECT_LT(clustered.total(), unclustered.total());
}

TEST(AlgorithmCostTest, FilterCostsTheCheapestStackOfItsConjuncts) {
  // A k-conjunct Filter in ascending selectivity order costs what the
  // cheapest stack of single-conjunct Filters over the same input costs:
  // each conjunct is charged on the rows the ones before it kept.
  CostModel cm;
  const double card = 50000;
  std::vector<double> sels = {0.9, 0.1, 0.5};
  double cheapest_stack = Cost::Infinite().total();
  std::sort(sels.begin(), sels.end());
  std::vector<double> cheapest_order;
  do {
    double in = card;
    double stack = 0.0;
    for (double s : sels) {
      stack += FilterCost(cm, in, {s}).total();
      in *= s;
    }
    if (stack < cheapest_stack) {
      cheapest_stack = stack;
      cheapest_order = sels;
    }
  } while (std::next_permutation(sels.begin(), sels.end()));
  EXPECT_EQ(cheapest_order, (std::vector<double>{0.1, 0.5, 0.9}));
  EXPECT_NEAR(FilterCost(cm, card, {0.1, 0.5, 0.9}).total(), cheapest_stack,
              1e-12 * cheapest_stack);
}

TEST(AlgorithmCostTest, WarmStartBeatsFaultingForDenseAccess) {
  PaperDb db = MakePaperCatalog();
  CostModel cm;
  BindingTable bindings;
  BindingId e = bindings.AddGet("e", db.employee);
  BindingId d = bindings.AddMat("e.dept", db.department, e, db.emp_dept);
  std::vector<MatStep> steps = {{e, db.emp_dept, d}};
  // 50000 references into a 1000-object extent: pre-scanning the extent
  // (paper Lesson 7) is far cheaper than 1000 discounted faults.
  Cost faulting = AssemblyCost(cm, db.catalog, bindings, 50000, steps, 0, false);
  Cost warm = AssemblyCost(cm, db.catalog, bindings, 50000, steps, 0, true);
  EXPECT_LT(warm.total(), faulting.total());
}

TEST(AlgorithmCostTest, PointerJoinWorseThanAssembly) {
  PaperDb db = MakePaperCatalog();
  CostModel cm;
  BindingTable bindings;
  BindingId e = bindings.AddGet("e", db.employee);
  BindingId d = bindings.AddMat("e.dept", db.department, e, db.emp_dept);
  std::vector<MatStep> steps = {{e, db.emp_dept, d}};
  Cost assembly = AssemblyCost(cm, db.catalog, bindings, 5000, steps, 0, false);
  Cost pointer = PointerJoinCost(cm, db.catalog, 5000, db.department);
  EXPECT_LT(assembly.total(), pointer.total());
}

TEST(AlgorithmCostTest, SortSpillsBeyondMemory) {
  CostModel cm;
  Cost in_memory = SortCost(cm, 1000, 100);
  EXPECT_DOUBLE_EQ(in_memory.io_s, 0.0);
  Cost spilled = SortCost(cm, 1000000, 100);
  EXPECT_GT(spilled.io_s, 0.0);
}

TEST(AlgorithmCostTest, MergeJoinLinear) {
  CostModel cm;
  EXPECT_LT(MergeJoinCost(cm, 100, 100).total(),
            HybridHashJoinCost(cm, 100, 100, 100, 100).total());
}

}  // namespace
}  // namespace oodb
