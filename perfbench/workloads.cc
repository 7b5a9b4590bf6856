// The three workloads: instance sizes, statement classes with their weights,
// and the seeded literal generators. Why each workload exists and which
// layer it stresses is written down in README.md.
#include <algorithm>
#include <cmath>

#include "perfbench/bench.h"

namespace perfbench {

namespace {

std::string Int(int64_t v) { return std::to_string(v); }

/// The OO7 instance both OO7 workloads share: 600k atomic parts behind
/// 3000 composite parts, so the hash-join class runs for tens of ms; five
/// modules (T1 walks each module's design root down to 30k atomic parts)
/// and 1000 base assemblies for the Q5 set-valued join.
Oo7Options Oo7Full() {
  Oo7Options o;
  o.num_modules = 5;
  o.complex_per_module = 20;
  o.base_per_complex = 10;
  o.components_per_base = 3;
  o.num_composite_parts = 3000;
  o.atomic_per_composite = 200;
  o.num_build_dates = 100;
  o.num_doc_titles = 25;
  return o;
}

/// Same generator and seed, small enough for the reference evaluator's
/// nested-loop joins (60k atomic parts x 40 composites is 2.4M pairs per
/// join statement) and large enough that the selective join, which keeps
/// about 1e-4 of the atomic parts, still returns rows (about five per
/// statement).
Oo7Options Oo7Reduced() {
  Oo7Options o = Oo7Full();
  o.num_modules = 2;
  o.num_composite_parts = 40;
  o.atomic_per_composite = 1500;
  return o;
}

int64_t PaperDistinct(const InstanceConfig& c, int64_t full) {
  return std::max<int64_t>(1, std::llround(full * c.paper_scale));
}

/// Person and employee names as the data generator writes them: class 0
/// carries the paper's literal ("Joe", "Fred").
std::string PaperName(const char* prefix, int64_t cls, const char* zero) {
  return cls == 0 ? zero : prefix + Int(cls);
}

// Every generator draws the same number of values whatever the instance
// size, so the full and reduced decks of one seed stay aligned.

std::string GenOo7Analytic(int cls, Rng& rng, const InstanceConfig&) {
  switch (cls) {
    case 0:  // bench_exec's hash-join pipeline
      return "SELECT a.id, p.id FROM AtomicPart a IN AtomicParts, "
             "CompositePart p IN CompositeParts WHERE a.partOf == p && "
             "a.x > " + Int(rng.UniformRange(96, 104)) +
             " && a.y < " + Int(rng.UniformRange(896, 904)) +
             " && p.buildDate >= " + Int(rng.UniformRange(1, 3)) + ";";
    case 1:  // its selective variant
      return "SELECT a.id, p.id FROM AtomicPart a IN AtomicParts, "
             "CompositePart p IN CompositeParts WHERE a.partOf == p && "
             "a.x > " + Int(rng.UniformRange(989, 990)) +
             " && a.y < " + Int(rng.UniformRange(9, 10)) +
             " && p.buildDate >= " + Int(rng.UniformRange(1, 3)) + ";";
    case 2:  // ORDER BY: full sort of a fifth of the atomic parts
      return "SELECT a.id, a.buildDate FROM AtomicPart a IN AtomicParts "
             "WHERE a.x >= " + Int(rng.UniformRange(798, 802)) +
             " ORDER BY a.buildDate, a.id;";
    case 3:  // ORDER BY ... LIMIT: bounded-heap TopK over every part
      return "SELECT a.id, a.buildDate FROM AtomicPart a IN AtomicParts "
             "WHERE a.x >= " + Int(rng.UniformRange(1, 8)) +
             " ORDER BY a.buildDate, a.id LIMIT " +
             Int(rng.UniformRange(8, 15)) + ";";
    case 4:  // T1 traversal: Mat / Unnest / assembly through three hops
      return "SELECT a.id FROM Module m IN Modules, "
             "BaseAssembly b IN m.designRoot.subAssemblies, "
             "CompositePart p IN b.components, AtomicPart a IN p.parts "
             "WHERE a.x > a.y && a.y >= " + Int(rng.UniformRange(1, 5)) + ";";
    default:  // Q5: set-valued join of base assemblies and components
      return "SELECT b.id, p.id FROM BaseAssembly b IN BaseAssemblies, "
             "CompositePart p IN b.components "
             "WHERE p.buildDate > b.buildDate && b.id >= " +
             Int(rng.UniformRange(1, 5)) + ";";
  }
}

std::string GenOo7Lookup(int cls, Rng& rng, const InstanceConfig& c) {
  const Oo7Options& o = c.oo7;
  switch (cls) {
    case 0: {  // exact match on the atomic-id index
      int64_t n = int64_t{o.num_composite_parts} * o.atomic_per_composite;
      return Oo7QueryExactMatch(static_cast<int64_t>(rng.Uniform(n)));
    }
    case 1:  // path index composite -> documentation -> title
      return Oo7QueryByDocTitle(
          "Doc" + Int(static_cast<int64_t>(rng.Uniform(o.num_doc_titles))));
    default:  // base-assembly build-date index probe
      return "SELECT b.id FROM BaseAssembly b IN BaseAssemblies "
             "WHERE b.buildDate == " +
             Int(static_cast<int64_t>(rng.Uniform(o.num_build_dates))) + ";";
  }
}

std::string GenPaperSearch(int cls, Rng& rng, const InstanceConfig& c) {
  const int64_t persons = PaperDistinct(c, 5000);
  const int64_t emps = PaperDistinct(c, 475);
  const int64_t times = PaperDistinct(c, 600);
  auto emp_name = [&] {
    return PaperName("E", static_cast<int64_t>(rng.Uniform(emps)), "Fred");
  };
  auto age = [&] { return Int(rng.UniformRange(20, 69)); };
  switch (cls) {
    case 0: {  // paper Q1: three-hop Mat chain
      int64_t loc = static_cast<int64_t>(rng.Uniform(50));
      return "SELECT e.name, e.job.name, e.dept.name "
             "FROM Employee e IN Employees WHERE e.dept.plant.location == \"" +
             (loc == 0 ? std::string("Dallas") : "Loc" + Int(loc)) + "\";";
    }
    case 1:  // paper Q2
      return "SELECT c FROM City c IN Cities WHERE c.mayor.name == \"" +
             PaperName("P", static_cast<int64_t>(rng.Uniform(persons)), "Joe") +
             "\";";
    case 2:  // paper Q3
      return "SELECT c.mayor.age, c.name FROM City c IN Cities "
             "WHERE c.mayor.name == \"" +
             PaperName("P", static_cast<int64_t>(rng.Uniform(persons)), "Joe") +
             "\";";
    case 3: {  // paper Q4
      std::string name = emp_name();
      return "SELECT t FROM Task t IN Tasks, Employee e IN t.team_members "
             "WHERE e.name == \"" + name + "\" && t.time == " +
             Int(1 + static_cast<int64_t>(rng.Uniform(times))) + ";";
    }
    case 4: {  // two-range Employee self-join filtered by literals
      std::string a1 = age(), a2 = age();
      return "SELECT e1.name, e2.age FROM Employee e1 IN Employees, "
             "Employee e2 IN Employees WHERE e1.name == e2.name && "
             "e1.age == " + a1 + " && e2.age == " + a2 + ";";
    }
    default: {  // three-range self-join
      std::string a1 = age(), a2 = age(), a3 = age();
      return "SELECT e1.name, e3.age FROM Employee e1 IN Employees, "
             "Employee e2 IN Employees, Employee e3 IN Employees "
             "WHERE e1.name == e2.name && e2.name == e3.name && "
             "e1.age == " + a1 + " && e2.age == " + a2 +
             " && e3.age == " + a3 + ";";
    }
  }
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;
  {
    WorkloadSpec w;
    w.name = "oo7-analytic";
    w.generate = GenOo7Analytic;
    // Weights keep every class under ~40% of wall time and centre the
    // median in the join band (a quarter of the statements are faster, a
    // quarter slower) and the 95th percentile in the sort band (the slowest
    // tenth), so neither sits on the edge between two classes.
    w.classes = {{"join", 10, true},
                 {"join-selective", 2, true},
                 {"sort", 2, false, {1, 0}},
                 {"topk", 3, false, {1, 0}},
                 {"t1", 1},
                 {"q5", 2}};
    w.full.oo7 = Oo7Full();
    w.reduced.oo7 = Oo7Reduced();
    w.setup_reps = 9;
    w.options.optimizer.plan_cache_capacity = 1024;
    w.options.optimizer.max_dop = 2;
    out.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "paper-search";
    w.generate = GenPaperSearch;
    w.paper = true;
    // The three-range joins are the slowest seventh of the statements, so
    // the 95th percentile falls inside their band, and their search is
    // most of the wall time. The median falls inside the two-range join
    // band (Q1-Q4 are faster, the three-range joins slower).
    w.classes = {{"q1", 1},         {"q2", 1},
                 {"q3", 1},         {"q4", 1},
                 {"join2", 8, true}, {"join3", 2, true}};
    w.full.paper_scale = 1.0;
    w.full.paper_plants = 100;
    // 160 employees of 2 names: a three-range nested loop is 4M tuples.
    w.reduced.paper_scale = 0.0032;
    w.reduced.paper_plants = 4;
    w.setup_reps = 11;
    out.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "oo7-lookup";
    w.generate = GenOo7Lookup;
    w.classes = {{"exact-id", 40}, {"doc-title", 20}, {"build-date", 20}};
    w.full.oo7 = Oo7Full();
    w.reduced.oo7 = Oo7Reduced();
    w.setup_reps = 9;
    w.options.optimizer.plan_cache_capacity = 1024;
    out.push_back(std::move(w));
  }
  return out;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>& all =
      *new std::vector<WorkloadSpec>(MakeWorkloads());
  return all;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : Workloads()) names.push_back(w.name);
  return names;
}

std::vector<Statement> MakeDeck(const WorkloadSpec& w, const InstanceConfig& c,
                                uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  std::vector<Statement> deck;
  for (int cls = 0; cls < static_cast<int>(w.classes.size()); ++cls) {
    for (int k = 0; k < w.classes[cls].weight; ++k) {
      Statement s;
      s.cls = cls;
      s.text = w.generate(cls, rng, c);
      deck.push_back(std::move(s));
    }
  }
  for (size_t i = deck.size(); i > 1; --i) {
    std::swap(deck[i - 1], deck[rng.Uniform(i)]);
  }
  return deck;
}

Result<std::unique_ptr<Instance>> BuildInstance(const WorkloadSpec& w,
                                                const InstanceConfig& c) {
  auto inst = std::make_unique<Instance>();
  double t0 = NowSeconds();
  if (w.paper) {
    inst->paper = std::make_unique<PaperDb>(MakePaperCatalog(c.paper_scale));
    inst->session =
        std::make_unique<Session>(&inst->paper->catalog, w.options);
    inst->catalog_s = NowSeconds() - t0;
    t0 = NowSeconds();
    GenOptions gen;
    gen.num_plants = c.paper_plants;
    OODB_RETURN_IF_ERROR(
        GeneratePaperData(*inst->paper, &inst->session->store(), gen)
            .status());
  } else {
    inst->oo7 = MakeOo7Catalog(c.oo7);
    inst->session = std::make_unique<Session>(&inst->oo7->catalog, w.options);
    inst->catalog_s = NowSeconds() - t0;
    t0 = NowSeconds();
    OODB_RETURN_IF_ERROR(
        PopulateOo7(inst->oo7.get(), &inst->session->store(), c.oo7));
  }
  inst->populate_s = NowSeconds() - t0;
  return inst;
}

}  // namespace perfbench
