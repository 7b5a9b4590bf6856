#include <gtest/gtest.h>

#include <cstdlib>

#include "src/storage/datagen.h"

namespace oodb {
namespace {

class DatagenTest : public ::testing::Test {
 protected:
  static constexpr double kScale = 0.02;

  DatagenTest() : db_(MakePaperCatalog(kScale)), store_(&db_.catalog) {
    auto r = GeneratePaperData(db_, &store_);
    EXPECT_TRUE(r.ok()) << r.status();
    data_ = *std::move(r);
  }

  int64_t SetCard(const char* name) {
    return (*db_.catalog.FindSet(name))->cardinality;
  }

  /// Uncharged read of a known-valid oid (fails the test on error).
  static const ObjectData& Obj(ObjectStore& store, Oid oid) {
    Result<const ObjectData*> r = store.Read(oid, /*stream=*/nullptr);
    if (!r.ok()) {
      ADD_FAILURE() << r.status();
      std::abort();
    }
    return **r;
  }
  const ObjectData& Obj(Oid oid) { return Obj(store_, oid); }

  PaperDb db_;
  ObjectStore store_;
  PaperDataset data_;
};

TEST_F(DatagenTest, PopulationsMatchCatalog) {
  EXPECT_EQ(static_cast<int64_t>(data_.persons.size()),
            db_.catalog.TypeCardinality(db_.person).value());
  EXPECT_EQ(static_cast<int64_t>(data_.countries.size()),
            db_.catalog.TypeCardinality(db_.country).value());
  EXPECT_EQ(static_cast<int64_t>(data_.employees.size()),
            db_.catalog.TypeCardinality(db_.employee).value());
  EXPECT_EQ(static_cast<int64_t>(data_.cities.size()), SetCard("Cities"));
  EXPECT_EQ(static_cast<int64_t>(data_.capitals.size()), SetCard("Capitals"));
  EXPECT_EQ(static_cast<int64_t>(data_.tasks.size()),
            db_.catalog.TypeCardinality(db_.task).value());
}

TEST_F(DatagenTest, SetsAreSubsetsOfExtents) {
  auto employees_set =
      store_.CollectionMembers(CollectionId::Set("Employees", db_.employee));
  ASSERT_TRUE(employees_set.ok());
  EXPECT_EQ(static_cast<int64_t>((*employees_set)->size()),
            SetCard("Employees"));
  auto tasks_set =
      store_.CollectionMembers(CollectionId::Set("Tasks", db_.task));
  ASSERT_TRUE(tasks_set.ok());
  EXPECT_EQ(static_cast<int64_t>((*tasks_set)->size()), SetCard("Tasks"));
}

TEST_F(DatagenTest, JoeMayorCountMatchesSelectivity) {
  // The catalog predicts |Cities| / distinct-mayor-names qualifying cities.
  int64_t distinct =
      db_.catalog.schema().type(db_.person).field(db_.person_name).distinct_values;
  int64_t expected = (SetCard("Cities") + distinct - 1) / distinct;
  int joes = 0;
  for (Oid c : data_.cities) {
    Oid mayor = Obj(c).ref(db_.city_mayor);
    if (Obj(mayor).value(db_.person_name).s == "Joe") ++joes;
  }
  EXPECT_EQ(joes, expected);
}

TEST_F(DatagenTest, TaskTimesCoverDistinctValues) {
  int64_t times =
      db_.catalog.schema().type(db_.task).field(db_.task_time).distinct_values;
  int with_time_1 = 0;
  auto tasks_set = store_.CollectionMembers(CollectionId::Set("Tasks", db_.task));
  ASSERT_TRUE(tasks_set.ok());
  for (Oid t : **tasks_set) {
    int64_t v = Obj(t).value(db_.task_time).i;
    EXPECT_GE(v, 1);
    EXPECT_LE(v, times);
    if (v == 1) ++with_time_1;
  }
  // Class-based assignment: |Tasks| / times tasks per value.
  EXPECT_NEAR(with_time_1, SetCard("Tasks") / times, 1);
}

TEST_F(DatagenTest, TeamMembersHaveExpectedFanout) {
  double avg = db_.catalog.schema()
                   .type(db_.task)
                   .field(db_.task_team_members)
                   .avg_set_card;
  const ObjectData& t = Obj(data_.tasks[0]);
  ASSERT_EQ(t.ref_sets.size(), 1u);
  EXPECT_EQ(static_cast<double>(t.ref_sets[0].size()), avg);
  for (Oid m : t.ref_sets[0]) {
    EXPECT_EQ(store_.TypeOf(m), db_.employee);
  }
}

TEST_F(DatagenTest, ReferencesAreValid) {
  for (Oid c : data_.cities) {
    const ObjectData& city = Obj(c);
    EXPECT_EQ(store_.TypeOf(city.ref(db_.city_mayor)), db_.person);
    EXPECT_EQ(store_.TypeOf(city.ref(db_.city_country)), db_.country);
  }
  for (Oid d : data_.departments) {
    EXPECT_EQ(store_.TypeOf(Obj(d).ref(db_.dept_plant)), db_.plant);
  }
}

TEST_F(DatagenTest, IndexesBuilt) {
  ASSERT_TRUE(store_.FindIndex(kIdxCitiesMayorName).ok());
  ASSERT_TRUE(store_.FindIndex(kIdxTasksTime).ok());
  ASSERT_TRUE(store_.FindIndex(kIdxEmployeesName).ok());
  auto time_idx = store_.FindIndex(kIdxTasksTime);
  EXPECT_EQ((*time_idx)->num_entries(), SetCard("Tasks"));
}

TEST_F(DatagenTest, DallasFractionApproximatelyRespected) {
  int dallas = 0;
  for (Oid p : data_.plants) {
    if (Obj(p).value(db_.plant_location).s == "Dallas") {
      ++dallas;
    }
  }
  EXPECT_GT(dallas, 0);
  EXPECT_LT(dallas, static_cast<int>(data_.plants.size()) / 3);
}

TEST_F(DatagenTest, DeterministicForSameSeed) {
  ObjectStore store2(&db_.catalog);
  auto r = GeneratePaperData(db_, &store2);
  ASSERT_TRUE(r.ok());
  // Compare a sample of employees field-by-field.
  for (int i = 0; i < 50; ++i) {
    Oid e = data_.employees[i];
    const ObjectData& a = Obj(e);
    const ObjectData& b = Obj(store2, e);
    EXPECT_EQ(a.value(db_.emp_name).s, b.value(db_.emp_name).s);
    EXPECT_EQ(a.ref(db_.emp_dept), b.ref(db_.emp_dept));
  }
}

TEST_F(DatagenTest, FredEmployeesExist) {
  int freds = 0;
  for (Oid e : data_.employees) {
    if (Obj(e).value(db_.emp_name).s == "Fred") ++freds;
  }
  int64_t distinct =
      db_.catalog.schema().type(db_.employee).field(db_.emp_name).distinct_values;
  EXPECT_NEAR(freds,
              static_cast<int>(data_.employees.size() / distinct), 1);
}

}  // namespace
}  // namespace oodb
