#include "src/storage/datagen.h"

#include <string>

namespace oodb {

namespace {

int64_t SetCard(const PaperDb& db, const char* name) {
  Result<const CollectionInfo*> c = db.catalog.FindSet(name);
  return c.ok() ? (*c)->cardinality : 0;
}

int64_t ExtentCard(const PaperDb& db, TypeId type) {
  return db.catalog.TypeCardinality(type).value_or(0);
}

/// Class-based value assignment: object i of a population with D distinct
/// values gets class i mod D, so every value occurs floor/ceil(N/D) times —
/// matching the catalog's uniform-distribution assumption exactly.
std::string NameForClass(const char* prefix, int64_t cls,
                         const char* special_zero) {
  if (cls == 0 && special_zero != nullptr) return special_zero;
  return std::string(prefix) + std::to_string(cls);
}

}  // namespace

Result<PaperDataset> GeneratePaperData(const PaperDb& db, ObjectStore* store,
                                       GenOptions options) {
  Rng rng(options.seed);
  PaperDataset data;
  const Schema& schema = db.catalog.schema();
  store->Reserve(store->num_objects() + ExtentCard(db, db.person) +
                 ExtentCard(db, db.country) + SetCard(db, "Cities") +
                 SetCard(db, "Capitals") + options.num_plants +
                 ExtentCard(db, db.department) + ExtentCard(db, db.job) +
                 ExtentCard(db, db.employee) +
                 ExtentCard(db, db.information) + ExtentCard(db, db.task));

  // --- Persons. Name class 0 is "Joe". ---
  int64_t num_persons = ExtentCard(db, db.person);
  int64_t person_names =
      schema.type(db.person).field(db.person_name).distinct_values;
  for (int64_t i = 0; i < num_persons; ++i) {
    Oid o = store->Create(db.person);
    store->SetValue(o, db.person_name,
                    Value::Str(NameForClass("P", i % person_names, "Joe")));
    store->SetValue(o, db.person_age,
                    Value::Int(20 + static_cast<int64_t>(rng.Uniform(70))));
    data.persons.push_back(o);
  }

  // --- Countries. ---
  int64_t num_countries = ExtentCard(db, db.country);
  for (int64_t i = 0; i < num_countries; ++i) {
    Oid o = store->Create(db.country);
    store->SetValue(o, db.country_name,
                    Value::Str("Country" + std::to_string(i)));
    store->SetRef(o, db.country_president,
                  data.persons[rng.Uniform(data.persons.size())]);
    data.countries.push_back(o);
  }

  // --- Cities. Mayor of city i is a person whose name class is i mod D, so
  // exactly ceil(|Cities| / D) cities have a mayor named "Joe". ---
  int64_t num_cities = SetCard(db, "Cities");
  auto person_of_class = [&](int64_t cls) {
    int64_t copies = num_persons / person_names;
    if (copies <= 1) return data.persons[cls % num_persons];
    return data.persons[cls + person_names * static_cast<int64_t>(
                                                 rng.Uniform(copies))];
  };
  int64_t city_names = schema.type(db.city).field(db.city_name).distinct_values;
  for (int64_t i = 0; i < num_cities; ++i) {
    Oid o = store->Create(db.city);
    store->SetValue(o, db.city_name,
                    Value::Str(NameForClass("City", i % city_names, nullptr)));
    store->SetRef(o, db.city_mayor, person_of_class(i % person_names));
    store->SetRef(o, db.city_country,
                  data.countries[rng.Uniform(data.countries.size())]);
    store->SetValue(o, db.city_population,
                    Value::Int(10000 + static_cast<int64_t>(rng.Uniform(1000000))));
    OODB_RETURN_IF_ERROR(store->AddToSet("Cities", o));
    data.cities.push_back(o);
  }

  // --- Capitals (a distinct subtype population). ---
  int64_t num_capitals = SetCard(db, "Capitals");
  for (int64_t i = 0; i < num_capitals; ++i) {
    Oid o = store->Create(db.capital);
    store->SetValue(o, db.city_name, Value::Str("Capital" + std::to_string(i)));
    store->SetRef(o, db.city_mayor, person_of_class(i % person_names));
    store->SetRef(o, db.city_country, data.countries[i % num_countries]);
    store->SetValue(o, db.city_population,
                    Value::Int(100000 + static_cast<int64_t>(rng.Uniform(5000000))));
    OODB_RETURN_IF_ERROR(store->AddToSet("Capitals", o));
    data.capitals.push_back(o);
  }

  // --- Plants (no extent, no set: population unknown to the optimizer). ---
  for (int64_t i = 0; i < options.num_plants; ++i) {
    Oid o = store->Create(db.plant);
    store->SetValue(o, db.plant_name, Value::Str("Plant" + std::to_string(i)));
    bool dallas = rng.NextDouble() < options.dallas_fraction;
    store->SetValue(o, db.plant_location,
                    Value::Str(dallas ? "Dallas"
                                      : "Loc" + std::to_string(1 + rng.Uniform(49))));
    store->SetValue(o, db.plant_products, Value::Str("products..."));
    data.plants.push_back(o);
  }

  // --- Departments. ---
  int64_t num_depts = ExtentCard(db, db.department);
  for (int64_t i = 0; i < num_depts; ++i) {
    Oid o = store->Create(db.department);
    store->SetValue(o, db.dept_name, Value::Str("Dept" + std::to_string(i)));
    store->SetRef(o, db.dept_plant, data.plants[rng.Uniform(data.plants.size())]);
    store->SetValue(o, db.dept_floor,
                    Value::Int(1 + static_cast<int64_t>(rng.Uniform(10))));
    data.departments.push_back(o);
  }

  // --- Jobs. ---
  int64_t num_jobs = ExtentCard(db, db.job);
  for (int64_t i = 0; i < num_jobs; ++i) {
    Oid o = store->Create(db.job);
    store->SetValue(o, db.job_name, Value::Str("Job" + std::to_string(i)));
    data.jobs.push_back(o);
  }

  // --- Employees. Name class 0 is "Fred". The Employees set is the first
  // |set| employees (contiguous -> densely packed pages, as Table 1 assumes).
  int64_t num_employees = ExtentCard(db, db.employee);
  int64_t employees_set = SetCard(db, "Employees");
  int64_t emp_names = schema.type(db.employee).field(db.emp_name).distinct_values;
  for (int64_t i = 0; i < num_employees; ++i) {
    Oid o = store->Create(db.employee);
    store->SetValue(o, db.emp_name,
                    Value::Str(NameForClass("E", i % emp_names, "Fred")));
    store->SetValue(o, db.emp_age,
                    Value::Int(20 + static_cast<int64_t>(rng.Uniform(50))));
    store->SetValue(o, db.emp_salary,
                    Value::Double(30000.0 + rng.NextDouble() * 120000.0));
    store->SetValue(o, db.emp_last_raise,
                    Value::Int(static_cast<int64_t>(rng.Uniform(1500))));
    store->SetRef(o, db.emp_dept,
                  data.departments[rng.Uniform(data.departments.size())]);
    store->SetRef(o, db.emp_job, data.jobs[rng.Uniform(data.jobs.size())]);
    if (i < employees_set) {
      OODB_RETURN_IF_ERROR(store->AddToSet("Employees", o));
    }
    data.employees.push_back(o);
  }

  // --- Information. ---
  int64_t num_infos = ExtentCard(db, db.information);
  for (int64_t i = 0; i < num_infos; ++i) {
    Oid o = store->Create(db.information);
    store->SetValue(o, db.info_text, Value::Str("info..."));
    data.infos.push_back(o);
  }

  // --- Tasks. time class i mod D, value 1 + class; the Tasks set is the
  // first |set| tasks. ---
  int64_t num_tasks = ExtentCard(db, db.task);
  int64_t tasks_set = SetCard(db, "Tasks");
  int64_t times = schema.type(db.task).field(db.task_time).distinct_values;
  double team = schema.type(db.task).field(db.task_team_members).avg_set_card;
  for (int64_t i = 0; i < num_tasks; ++i) {
    Oid o = store->Create(db.task);
    store->SetValue(o, db.task_name, Value::Str("Task" + std::to_string(i)));
    store->SetValue(o, db.task_time, Value::Int(1 + (i % times)));
    int64_t members = static_cast<int64_t>(team);
    for (int64_t m = 0; m < members; ++m) {
      store->AddToRefSet(o, db.task_team_members,
                         data.employees[rng.Uniform(data.employees.size())]);
    }
    if (i < tasks_set) {
      OODB_RETURN_IF_ERROR(store->AddToSet("Tasks", o));
    }
    data.tasks.push_back(o);
  }

  OODB_RETURN_IF_ERROR(store->BuildIndexes());
  return data;
}

}  // namespace oodb
