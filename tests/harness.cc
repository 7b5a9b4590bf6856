#include "tests/harness.h"

#include <gtest/gtest-spi.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <functional>
#include <map>
#include <set>

#include "src/common/strings.h"
#include "src/cost/selectivity.h"
#include "src/exec/exec_fault.h"
#include "src/exec/reference.h"
#include "src/physical/algorithms.h"
#include "src/physical/enforcers.h"
#include "src/physical/impl_rules.h"
#include "src/rules/transformations.h"

namespace oodb {
namespace testing {
namespace {

using Rows = std::vector<std::vector<Value>>;

// --- the schema table --------------------------------------------------------
//
// Templates: `@` is the range's variable, `$` the other range of a join
// edge, `#lo:hi` a uniform integer. Each reference hop of a path is a Mat.

struct ExtentRow {
  const char* type;
  const char* coll;
  const char* var;
  std::vector<const char*> preds;      // single-range conjuncts
  std::vector<const char*> selective;  // conjuncts keeping <= ~1/10 of it
  std::vector<const char*> paths;      // conjuncts through a reference
  std::vector<const char*> cols;       // select columns and ORDER BY keys
};
struct EdgeRow {
  const char* from;
  const char* to;
  const char* pred;
};
struct UnnestRow {
  const char* from;
  const char* elem;
  const char* field;
};
struct SchemaRow {
  std::vector<ExtentRow> extents;
  std::vector<EdgeRow> edges;
  std::vector<UnnestRow> unnests;
};

// The paper database at scale 0.02 (1,000 Employees, 20 Departments, 200
// Cities, 240 Tasks) and ParallelOo7Config (200 AtomicParts, 25
// CompositeParts, 15 BaseAssemblies); a deck line picks the second with
// `db=oo7`.
const SchemaRow kSchemas[] = {
    {{{"Employee", "Employees", "e",
       {"@.age >= #20:60", "@.age < #30:70", "@.salary >= #40000:120000.0",
        "@.name == \"Fred\""},
       {"@.age == #20:69", "@.name == \"E#1:9\""},
       {"@.dept.floor == #1:10", "@.job.name == \"Job#0:99\"",
        "@.dept.plant.location == \"Dallas\""},
       {"@.name", "@.age", "@.salary", "@.dept.name"}},
      {"Department", "Department", "d", {"@.floor <= #2:8"},
       {"@.floor == #1:10"}, {"@.plant.location == \"Dallas\""},
       {"@.name", "@.floor"}},
      {"City", "Cities", "c", {"@.population >= #20000:900000"},
       {"@.population < #20000:110000"},
       {"@.mayor.name == \"Joe\"", "@.country.name == \"Country#0:2\""},
       {"@.name", "@.population", "@.mayor.name"}},
      {"Task", "Tasks", "t", {"@.time >= #3:10"}, {"@.time == #1:12"}, {},
       {"@.name", "@.time"}},
      {"Job", "Job", "j", {}, {"@.name == \"Job#0:99\""}, {}, {"@.name"}},
      {"Country", "Country", "n", {}, {"@.name == \"Country#0:2\""},
       {"@.president.name == \"Joe\""}, {"@.name"}}},
     {{"Employee", "Department", "@.dept == $"},
      {"Employee", "Job", "@.job == $"},
      {"City", "Country", "@.country == $"},
      {"Employee", "Employee", "@.name == $.name"},
      {"Task", "Task", "@.time == $.time"},
      {"Department", "Department", "@.floor == $.floor"}},
     {{"Task", "Employee", "team_members"}}},
    {{{"AtomicPart", "AtomicParts", "a",
       {"@.x > @.y", "@.x >= #0:800", "@.buildDate >= #0:9"},
       {"@.x < #0:100", "@.id == #0:199"},
       {"@.partOf.buildDate >= #0:9",
        "@.partOf.documentation.title == \"Doc#0:4\""},
       {"@.id", "@.x", "@.y", "@.buildDate", "@.partOf.buildDate"}},
      {"CompositePart", "CompositeParts", "p", {"@.buildDate >= #0:9"},
       {"@.buildDate == #0:9", "@.id == #0:24"},
       {"@.documentation.title == \"Doc#0:4\"", "@.rootPart.x > #0:999"},
       {"@.id", "@.buildDate"}},
      {"BaseAssembly", "BaseAssemblies", "b", {"@.buildDate >= #0:9"},
       {"@.buildDate == #0:9", "@.id == #0:14"}, {}, {"@.id", "@.buildDate"}},
      {"Document", "Document", "o", {}, {"@.title == \"Doc#0:4\""}, {},
       {"@.title"}}},
     {{"AtomicPart", "CompositePart", "@.partOf == $"},
      {"CompositePart", "Document", "@.documentation == $"},
      {"CompositePart", "AtomicPart", "@.rootPart == $"},
      {"AtomicPart", "AtomicPart", "@.buildDate == $.buildDate"},
      {"CompositePart", "BaseAssembly", "@.buildDate > $.buildDate"}},
     {{"BaseAssembly", "CompositePart", "components"},
      {"CompositePart", "AtomicPart", "parts"}}},
};

// The rules a draw may disable. Ten, so that each seed consumes the same
// random draws.
const char* const kToggles[] = {
    kRuleJoinCommute,         kRuleJoinOrder,        kRuleMatToJoin,
    kRuleSelectUnnestCommute, kRuleSelectMatCommute, kRuleSelectJoinPush,
    kEnforcerAssembly,        kImplIndexScan,        kImplHybridHashJoin,
    kImplPointerJoin,
};

// --- the generated query -----------------------------------------------------

/// True if `text` names variable `var` (not a longer name, not a field).
bool Names(const std::string& text, const std::string& var) {
  for (size_t p = text.find(var); p != std::string::npos;
       p = text.find(var, p + 1)) {
    size_t e = p + var.size();
    if ((p == 0 || !(std::isalnum(text[p - 1]) || text[p - 1] == '.')) &&
        (e == text.size() || !std::isalnum(text[e]))) {
      return true;
    }
  }
  return false;
}

struct Query {
  std::vector<std::string> from;  // "Type var IN collection"
  std::vector<std::string> where, select, order;
  int64_t limit = 0;

  static std::string Var(const std::string& range) {
    return Split(range, ' ')[1];
  }

  std::string Text() const {
    std::string q = "SELECT " + ::oodb::Join(select, ", ") + " FROM " +
                    ::oodb::Join(from, ", ");
    if (!where.empty()) q += " WHERE " + ::oodb::Join(where, " && ");
    if (!order.empty()) q += " ORDER BY " + ::oodb::Join(order, ", ");
    if (limit > 0) q += " LIMIT " + std::to_string(limit);
    return q + ";";
  }

  /// Mats (one per distinct path prefix) plus unnests.
  int Paths() const {
    std::set<std::string> mats;
    int unnests = 0;
    for (const std::string& r : from) {
      unnests += Split(r, ' ')[3].find('.') != std::string::npos;
    }
    for (const auto* list : {&where, &select, &order}) {
      for (const std::string& s : *list) {
        for (size_t i = 0, j = 0; i < s.size(); i = j + 1) {
          for (j = i; j < s.size() && (std::isalnum(s[j]) || s[j] == '.');) {
            ++j;
          }
          std::vector<std::string> parts = Split(s.substr(i, j - i), '.');
          std::string prefix = parts[0];
          for (size_t k = 1; k + 1 < parts.size() && !std::isdigit(prefix[0]);
               ++k) {
            mats.insert(prefix += "." + parts[k]);
          }
        }
      }
    }
    return static_cast<int>(mats.size()) + unnests;
  }

  /// Without range `r`, the unnests reading it, and every clause naming
  /// them; nullopt when no range or select column would be left.
  std::optional<Query> WithoutRange(size_t r) const {
    Query q = *this;
    std::vector<std::string> gone = {Var(from[r])};
    q.from.erase(q.from.begin() + static_cast<long>(r));
    auto names_gone = [&](const std::string& s) {
      return std::any_of(gone.begin(), gone.end(),
                         [&](const std::string& v) { return Names(s, v); });
    };
    // Unnests come after the range they read.
    for (size_t i = r; i < q.from.size();) {
      if (names_gone(Split(q.from[i], ' ')[3])) {
        gone.push_back(Var(q.from[i]));
        q.from.erase(q.from.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    for (auto* list : {&q.where, &q.select, &q.order}) {
      std::erase_if(*list, names_gone);
    }
    if (q.order.empty()) q.limit = 0;
    if (q.from.empty() || q.select.empty()) return std::nullopt;
    return q;
  }
};

std::string Fill(const char* tmpl, const std::string& a, Rng& rng,
                 const std::string& b = "") {
  std::string out;
  for (const char* p = tmpl; *p != '\0'; ++p) {
    if (*p == '#') {
      char* end;
      long lo = std::strtol(p + 1, &end, 10);
      long hi = std::strtol(end + 1, &end, 10);
      out += std::to_string(rng.UniformRange(lo, hi));
      p = end - 1;
    } else {
      out += *p == '@' ? a : *p == '$' ? b : std::string(1, *p);
    }
  }
  return out;
}

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& v) {
  return v[rng.Uniform(v.size())];
}

/// One query over `s`: 1-5 ranges joined along the schema's edges, an
/// unnest, reference paths, select columns, and (when `ordered`, or at
/// random) ORDER BY/LIMIT. Search cost bounds it: the ranges and the path
/// steps (an unnest counts as one) come to at most nine join-graph
/// vertices, about 23,000 m-exprs when no conjunct links them (ten build
/// some 74,000, over OptimizeUnder's cap). With three ranges or more every
/// range after the first gets a selective conjunct, so the reference result
/// stays well under 10^5 rows.
Query Generate(Rng& rng, const SchemaRow& s, bool ordered) {
  static const int kRanges[] = {1, 1, 1, 2, 2, 2, 3, 3, 4, 5};
  const int want = ordered ? std::min(3, kRanges[rng.Uniform(10)])
                           : kRanges[rng.Uniform(10)];
  auto row_of = [&](const std::string& type) -> const ExtentRow& {
    for (const ExtentRow& e : s.extents) {
      if (type == e.type) return e;
    }
    return s.extents[0];
  };
  Query q;
  std::vector<const ExtentRow*> rows;
  std::vector<std::string> vars;
  auto add = [&](const ExtentRow& row, const std::string& coll) {
    vars.push_back(row.var + std::to_string(vars.size() + 1));
    q.from.push_back(row.type + (" " + vars.back()) + " IN " + coll);
    rows.push_back(&row);
  };
  const ExtentRow& root = Pick(rng, s.extents);
  add(root, root.coll);
  while (static_cast<int>(vars.size()) < want) {
    // An edge between a range so far and a new one, in either direction.
    std::vector<std::pair<size_t, const EdgeRow*>> ends[2];
    for (size_t i = 0; i < vars.size(); ++i) {
      for (const EdgeRow& e : s.edges) {
        if (rows[i]->type == std::string(e.from)) ends[0].push_back({i, &e});
        if (rows[i]->type == std::string(e.to)) ends[1].push_back({i, &e});
      }
    }
    const bool back =
        ends[0].empty() || (!ends[1].empty() && rng.Bernoulli(0.5));
    auto [i, edge] = Pick(rng, ends[back]);
    const ExtentRow& row = row_of(back ? edge->from : edge->to);
    add(row, row.coll);
    q.where.push_back(back ? Fill(edge->pred, vars.back(), rng, vars[i])
                           : Fill(edge->pred, vars[i], rng, vars.back()));
  }
  for (const UnnestRow& u : s.unnests) {
    for (size_t i = 0; vars.size() <= 2 && i < vars.size(); ++i) {
      if (rows[i]->type == std::string(u.from) && rng.Bernoulli(0.3)) {
        add(row_of(u.elem), vars[i] + "." + u.field);
      }
    }
  }
  const int n = static_cast<int>(vars.size());
  auto fits = [&] { return n + q.Paths() <= 9; };
  std::vector<size_t> free;  // optional conjuncts: may be negated or merged
  for (int i = 0; i < n; ++i) {
    const ExtentRow& row = *rows[i];
    if (n >= 3 && i >= 1) {
      q.where.push_back(Fill(Pick(rng, row.selective), vars[i], rng));
    }
    if (rng.Bernoulli(0.5)) {
      std::vector<const char*> pool = row.preds;
      pool.insert(pool.end(), row.selective.begin(), row.selective.end());
      free.push_back(q.where.size());
      q.where.push_back(Fill(Pick(rng, pool), vars[i], rng));
    }
    if (!row.paths.empty() && rng.Bernoulli(0.3)) {
      q.where.push_back(Fill(Pick(rng, row.paths), vars[i], rng));
      if (!fits()) q.where.pop_back();
    }
    if (rng.Bernoulli(i == 0 ? 0.9 : 0.6)) {
      q.select.push_back(Fill(Pick(rng, row.cols), vars[i], rng));
      if (!fits()) q.select.pop_back();
    }
  }
  if (q.select.empty()) {
    q.select.push_back(Fill(rows[0]->cols[0], vars[0], rng));
  }
  // The argument-transformation rules: a negated conjunct, a disjunction.
  if (!free.empty() && rng.Bernoulli(0.2)) {
    std::string& c = q.where[Pick(rng, free)];
    c = "!(" + c + ")";
  }
  if (free.size() >= 2 && rng.Bernoulli(0.2)) {
    size_t a = free[free.size() - 2], b = free.back();
    q.where[a] = "(" + q.where[a] + " || " + q.where[b] + ")";
    q.where.erase(q.where.begin() + static_cast<long>(b));
  }
  if (ordered || rng.Bernoulli(0.2)) {
    std::vector<std::string> keys = q.select;
    for (size_t k = 1 + rng.Uniform(2); k > 0 && !keys.empty(); --k) {
      size_t pick = rng.Uniform(keys.size());
      q.order.push_back(keys[pick] + (rng.Bernoulli(0.5) ? " DESC" : ""));
      keys.erase(keys.begin() + static_cast<long>(pick));
    }
    if (rng.Bernoulli(0.5)) q.limit = 1 + static_cast<int64_t>(rng.Uniform(40));
  }
  return q;
}

// --- the configuration -------------------------------------------------------

struct Settings {
  std::string db = "paper";  // "oo7", "paper" (scale 0.02), "paperN" (N/100)
  OptimizerOptions opt;
  std::string ablate;  // oracle 1's extra disabled rule
  int dop = 1, batch = 1024;
  bool topk = true;
  ExecFaultPolicy xf;
  FaultPolicy sf;
  GovernorOptions gov;
  int session = 0;  // Session retry attempts; 0 runs ExecutePlan directly
  bool degrade = true, adaptive = false;
  bool noexec = false;    // oracles 1 and 2 only
  bool exact_io = false;  // see the end of CheckCase
};

/// InvalidArgument unless each of `names` is carried by a default
/// transformation rule, implementation rule or enforcer, or is a join-order
/// switch: a misspelt or deleted name would disable nothing.
Status CheckRuleNames(const std::vector<std::string>& names) {
  static const std::set<std::string> kKnown = [] {
    std::set<std::string> known = {kRuleJoinCommute, kRuleMatToJoin};
    for (const auto& r : MakeDefaultTransformations()) known.insert(r->name());
    for (const auto& r : MakeDefaultImplRules()) known.insert(r->name());
    for (const auto& e : MakeDefaultEnforcers()) known.insert(e->name());
    return known;
  }();
  for (const std::string& name : names) {
    if (!kKnown.count(name)) {
      return Status::InvalidArgument("unknown rule name: " + name);
    }
  }
  return Status::OK();
}

Result<Settings> ParseSettings(const std::vector<std::string>& tokens) {
  Settings s;
  s.gov.degrade_to_greedy = false;
  for (const std::string& t : tokens) {
    const size_t eq = t.find('=');
    const std::string k = t.substr(0, eq);
    const std::string v = eq == std::string::npos ? "" : t.substr(eq + 1);
    const int64_t n = std::isdigit(v[0]) ? std::stoll(v) : 0;
    if (k == "xf") {
      OODB_ASSIGN_OR_RETURN(s.xf, ParseExecFaultSpec(v));
      continue;
    }
    if (k == "db") s.db = v;
    else if (k == "off") s.opt.disabled_rules = Split(v, ',');
    else if (k == "prune") s.opt.enable_pruning = true;
    else if (k == "merge") s.opt.enable_merge_join = true;
    else if (k == "warm") s.opt.enable_warm_start_assembly = true;
    else if (k == "window") s.opt.cost.assembly_window = static_cast<int>(n);
    else if (k == "ablate") s.ablate = v;
    else if (k == "dop") s.dop = static_cast<int>(n);
    else if (k == "batch") s.batch = static_cast<int>(n);
    else if (k == "topk") s.topk = n != 0;
    else if (k == "nth") s.sf.fail_every_nth_read = n;
    else if (k == "sp") s.sf.fail_probability = std::stod(v);
    else if (k == "sseed") s.sf.seed = static_cast<uint64_t>(n);
    else if (k == "memo") s.gov.max_memo_mexprs = n;
    else if (k == "alts") s.gov.max_phys_alternatives = n;
    else if (k == "rows") s.gov.max_exec_rows = n;
    else if (k == "pages") s.gov.max_exec_pages = n;
    else if (k == "bytes") s.gov.max_tracked_bytes = n;
    else if (k == "session") s.session = static_cast<int>(n);
    else if (k == "nodegrade") s.degrade = false;
    else if (k == "adaptive") s.adaptive = true;
    else if (k == "noexec") s.noexec = true;
    else if (k == "exactio") s.exact_io = true;
    else return Status::InvalidArgument("unknown deck token: " + t);
  }
  std::vector<std::string> rules = s.opt.disabled_rules;
  if (!s.ablate.empty()) rules.push_back(s.ablate);
  OODB_RETURN_IF_ERROR(CheckRuleNames(rules));
  return s;
}

/// One seeded draw from the part of the configuration space `slice` names.
std::vector<std::string> DrawConfig(Rng& rng, Slice slice, bool oo7) {
  std::vector<std::string> t;
  if (oo7) t.push_back("db=oo7");
  std::string off;
  for (const char* r : kToggles) {
    if (rng.Bernoulli(0.07)) off += (off.empty() ? "" : ",") + std::string(r);
  }
  if (!off.empty()) t.push_back("off=" + off);
  t.push_back(std::string("ablate=") +
              kAblatedRules[rng.Uniform(std::size(kAblatedRules))]);
  static const std::pair<double, const char*> kFlags[] = {
      {0.3, "prune"}, {0.2, "merge"}, {0.2, "warm"}, {0.15, "window=1"},
      {0.2, "topk=0"}};
  for (const auto& [p, token] : kFlags) {
    if (rng.Bernoulli(p)) t.push_back(token);
  }
  static const int kBatch[] = {1, 7, 64, 1024};
  t.push_back("batch=" + std::to_string(kBatch[rng.Uniform(4)]));
  const bool chaos = slice == Slice::kChaos || slice == Slice::kSession;
  const int dop = slice == Slice::kParallel ? 2 << rng.Uniform(2)
                  : chaos                   ? 1 << rng.Uniform(3)
                                            : 1;
  if (dop > 1) t.push_back("dop=" + std::to_string(dop));
  if (slice != Slice::kSerial && slice != Slice::kChaos) {
    const double p = slice == Slice::kFaults ? 0.5 : 0.15;
    static const std::pair<const char*, int> kBudgets[] = {
        {"nth=", 40},   {"sseed=", 1000}, {"memo=", 200}, {"rows=", 500},
        {"pages=", 100}, {"bytes=", 4096}, {"alts=", 100}};
    for (const auto& [key, hi] : kBudgets) {
      if (rng.Bernoulli(p)) {
        t.push_back(key + std::to_string(1 + rng.Uniform(hi)));
      }
    }
    if (rng.Bernoulli(p)) t.push_back("sp=0.05");
  }
  if (chaos) {
    // One of the four exec fault kinds; a transient one ends after one or
    // two attempts, a permanent one never.
    const bool transient = rng.Bernoulli(0.5);
    const std::string tries =
        transient ? std::to_string(1 + rng.Uniform(2)) : "1000";
    std::string xf = "xf=seed=" + std::to_string(rng.Uniform(1 << 20));
    switch (rng.Uniform(4)) {
      case 0:
        xf += ",fail_worker=" + std::to_string(rng.Uniform(dop)) +
              ",fail_after_batches=" + std::to_string(1 + rng.Uniform(3)) +
              ",fail_attempts=" + tries;
        break;
      case 1:
        xf += ",fail_probability=0.0" + std::to_string(2 + rng.Uniform(8)) +
              ",fail_attempts=" + (transient ? "1" : "1000");
        break;
      case 2:
        xf += ",slow_worker=" + std::to_string(rng.Uniform(dop)) +
              ",slow_ms=0.5,slow_sim_s=0.001";
        break;
      default:
        xf += ",stall_pushes=" + std::to_string(1 + rng.Uniform(4)) +
              ",stall_ms=0.5";
    }
    t.push_back(xf);
  }
  if (slice == Slice::kSession) {
    t.push_back(rng.Bernoulli(0.7) ? "session=4" : "session=2");
    if (rng.Bernoulli(0.3)) t.push_back("nodegrade");
    if (rng.Bernoulli(0.3)) t.push_back("adaptive");
  }
  return t;
}

// --- the databases -----------------------------------------------------------

Status PopulatePaper(const PaperDb& db, ObjectStore* store) {
  GenOptions gen;
  gen.num_plants = 20;
  return GeneratePaperData(db, store, gen).status();
}

/// The options of deck database "oo7" (the parallel suites' instance) or
/// "oo7full" (the repository benchmark's catalog: 600k atomic parts).
Oo7Options Oo7Config(const std::string& name) {
  if (name == "oo7") return ParallelOo7Config();
  Oo7Options o;
  o.num_modules = 5;
  o.complex_per_module = 20;
  o.num_composite_parts = 3000;
  o.atomic_per_composite = 200;
  return o;
}

/// A deck database: "paper" is the paper database at scale 0.02, "paperN"
/// at N/100 (so "paper100" is Table 1), "oo7" and "oo7full" the OO7
/// instances of Oo7Config. Built on first use; the store only when a case
/// executes.
struct DeckDb {
  std::unique_ptr<PaperDb> paper;
  std::unique_ptr<Oo7Db> oo7;
  std::unique_ptr<ObjectStore> store;

  Catalog* catalog() { return paper ? &paper->catalog : &oo7->catalog; }
};

DeckDb& Db(const std::string& name, bool populated) {
  static std::map<std::string, DeckDb> dbs;
  DeckDb& db = dbs[name];
  const bool oo7 = name.starts_with("oo7");
  if (db.paper == nullptr && db.oo7 == nullptr) {
    if (oo7) {
      db.oo7 = MakeOo7Catalog(Oo7Config(name));
    } else {
      db.paper = std::make_unique<PaperDb>(MakePaperCatalog(
          name == "paper" ? 0.02 : std::stoi(name.substr(5)) / 100.0));
    }
  }
  if (populated && db.store == nullptr) {
    db.store = std::make_unique<ObjectStore>(db.catalog());
    EXPECT_OK(oo7 ? PopulateOo7(db.oo7.get(), db.store.get(), Oo7Config(name))
                  : PopulatePaper(*db.paper, db.store.get()));
  }
  return db;
}

// --- oracle 3's reference ----------------------------------------------------

/// A simplified query below its Project: the ranges, the Mats and Unnests
/// bottom-up, the conjuncts, and the constant-true predicate of a
/// cartesian Join; nullopt for any other shape.
struct Parts {
  std::vector<LogicalExprPtr> gets;
  std::vector<LogicalOp> steps;
  std::vector<ScalarExprPtr> conj;
  ScalarExprPtr truth;
};

std::optional<Parts> Decompose(const LogicalExprPtr& root) {
  Parts parts;
  bool ok = root->op.kind == LogicalOpKind::kProject;
  std::function<void(const LogicalExprPtr&)> walk = [&](const auto& e) {
    const LogicalOpKind k = e->op.kind;
    if (k == LogicalOpKind::kGet) {
      parts.gets.push_back(e);
    } else if (k == LogicalOpKind::kMat || k == LogicalOpKind::kUnnest) {
      walk(e->children[0]);
      parts.steps.push_back(e->op);
    } else if (k == LogicalOpKind::kSelect || k == LogicalOpKind::kJoin) {
      for (const ScalarExprPtr& c : ScalarExpr::SplitConjuncts(e->op.pred)) {
        if (IsConstTrue(c)) parts.truth = c;
        else parts.conj.push_back(c);
      }
      for (const LogicalExprPtr& c : e->children) walk(c);
    } else {
      ok = false;
    }
  };
  if (ok) walk(root->children[0]);
  if (!ok) return std::nullopt;
  return parts;
}

/// `root` with every Mat, Unnest and conjunct moved to the lowest point
/// where its bindings are in scope, ranges joined in FROM order. The
/// reference evaluator joins by nested loops; over the simplified tree's
/// cartesian product a three-range join would take 10^9 steps.
LogicalExprPtr PushDown(const LogicalExprPtr& root) {
  std::optional<Parts> parts = Decompose(root);
  if (!parts) return root;
  const auto& [gets, steps, conj, truth] = *parts;
  std::vector<bool> placed(steps.size() + conj.size());
  // The not yet placed conjuncts that `scope` covers.
  auto covered = [&](const BindingSet& scope) {
    std::vector<ScalarExprPtr> out;
    for (size_t i = 0; i < conj.size(); ++i) {
      if (!placed[steps.size() + i] &&
          scope.ContainsAll(conj[i]->ReferencedBindings())) {
        out.push_back(conj[i]);
        placed[steps.size() + i] = true;
      }
    }
    return out;
  };
  // `node` with the steps its scope allows above it, then a Select.
  auto settle = [&](LogicalExprPtr node) {
    for (bool more = true; more;) {
      more = false;
      for (size_t i = 0; i < steps.size(); ++i) {
        if (!placed[i] && node->Scope().Contains(steps[i].source)) {
          node = LogicalExpr::Make(steps[i], {node});
          placed[i] = more = true;
        }
      }
    }
    std::vector<ScalarExprPtr> now = covered(node->Scope());
    if (now.empty()) return node;
    return LogicalExpr::Make(
        LogicalOp::Select(ScalarExpr::CombineConjuncts(now)), {node});
  };
  LogicalExprPtr cur;
  for (const LogicalExprPtr& get : gets) {
    LogicalExprPtr node = settle(get);
    if (cur != nullptr) {
      std::vector<ScalarExprPtr> cross =
          covered(cur->Scope().Union(node->Scope()));
      node = settle(LogicalExpr::Make(
          LogicalOp::Join(cross.empty() ? truth
                                        : ScalarExpr::CombineConjuncts(cross)),
          {cur, node}));
    }
    cur = node;
  }
  return LogicalExpr::Make(root->op, {cur});
}

// --- oracle 2: join order by DP over subsets ---------------------------------

/// The cheapest join tree over a join graph, built from every split of
/// every subset of its ranges (cartesian ones included, as the memo's are):
/// a leaf is a File Scan, an Assembly per Mat
/// of the range, and a Filter of its conjuncts; a join is Nested Loops or,
/// over equalities with the referenced side building, a Hybrid Hash Join.
/// Priced with src/physical/algorithms and the SelectivityEstimator.
std::optional<double> DpCost(const LogicalExprPtr& root,
                             const QueryContext& ctx,
                             const OptimizerOptions& opts) {
  std::optional<Parts> parts = Decompose(root);
  if (!parts || parts->gets.size() > 12) return std::nullopt;
  const std::vector<LogicalExprPtr>& gets = parts->gets;
  const std::vector<LogicalOp>& mats = parts->steps;
  const int n = static_cast<int>(gets.size());
  for (const LogicalOp& step : mats) {
    if (step.kind != LogicalOpKind::kMat) return std::nullopt;
  }
  const Catalog& cat = *ctx.catalog;
  const BindingTable& bt = ctx.bindings;
  auto ranges = [&](const ScalarExprPtr& e) {  // bitset of ranges read
    unsigned mask = 0;
    for (BindingId b : e->ReferencedBindings().ToVector()) {
      while (bt.def(b).origin != BindingOrigin::kGet) b = bt.def(b).parent;
      for (int i = 0; i < n; ++i) {
        mask |= gets[i]->op.binding == b ? 1u << i : 0;
      }
    }
    return mask;
  };
  const CostModel cm(opts.cost);
  const SelectivityEstimator est(&ctx);
  const unsigned all = (1u << n) - 1;
  std::vector<double> card(all + 1), bytes(all + 1), best(all + 1, -1.0);
  std::vector<std::vector<ScalarExprPtr>> local(n);
  std::vector<std::pair<unsigned, ScalarExprPtr>> edges;
  for (const ScalarExprPtr& c : parts->conj) {
    const unsigned m = ranges(c);
    if (std::popcount(m) == 1) local[std::countr_zero(m)].push_back(c);
    else if (std::popcount(m) == 2) edges.push_back({m, c});
    else return std::nullopt;
  }
  for (int i = 0; i < n; ++i) {
    Result<const CollectionInfo*> coll =
        cat.FindCollection(gets[i]->op.coll);
    if (!coll.ok()) return std::nullopt;
    double c = static_cast<double>((*coll)->cardinality);
    double b = ctx.schema().type((*coll)->id.type).object_size();
    double cost = FileScanCost(cm, cat, **coll).total();
    for (const LogicalOp& m : mats) {
      if (ranges(ScalarExpr::Self(m.target)) != 1u << i) continue;
      cost += AssemblyCost(cm, cat, bt, c, {{m.source, m.field, m.target}}, 0,
                           false)
                  .total();
      b += ctx.schema().type(bt.def(m.target).type).object_size();
    }
    if (!local[i].empty()) {
      std::vector<double> sels;
      sels.reserve(local[i].size());
      for (const ScalarExprPtr& l : local[i]) sels.push_back(est.Estimate(l));
      std::sort(sels.begin(), sels.end());
      cost += FilterCost(cm, c, sels).total();
      c *= est.Estimate(ScalarExpr::CombineConjuncts(local[i]));
    }
    card[1u << i] = c;
    bytes[1u << i] = b;
    best[1u << i] = cost;
  }
  auto oid = [&](const ScalarExprPtr& e) {
    return e->kind() == ScalarExpr::Kind::kSelf && !bt.def(e->binding()).is_ref;
  };
  for (unsigned s = 1; s <= all; ++s) {
    for (unsigned l = (s - 1) & s; std::popcount(s) > 1 && l > 0;
         l = (l - 1) & s) {
      const unsigned r = s ^ l;
      std::vector<ScalarExprPtr> cross;
      for (const auto& [m, c] : edges) {
        if ((m & l) && (m & r)) cross.push_back(c);
      }
      card[s] = card[l] * card[r] *
                (cross.empty()
                     ? 1.0
                     : est.Estimate(ScalarExpr::CombineConjuncts(cross)));
      bytes[s] = bytes[l] + bytes[r];
      double join = NestedLoopsCost(cm, card[l], bytes[l], card[r]).total();
      bool hash = !cross.empty();
      for (const ScalarExprPtr& c : cross) {
        if (c->kind() != ScalarExpr::Kind::kCmp || c->cmp_op() != CmpOp::kEq) {
          hash = false;
          break;
        }
        const bool straight = (ranges(c->children()[0]) & ~l) == 0;
        hash &= !(oid(c->children()[straight ? 1 : 0]) &&
                  !oid(c->children()[straight ? 0 : 1]));
      }
      if (hash) {
        join = std::min(join, HybridHashJoinCost(cm, card[l], bytes[l],
                                                 card[r], bytes[r])
                                  .total());
      }
      const double total = best[l] + best[r] + join;
      if (best[s] < 0 || total < best[s]) best[s] = total;
    }
  }
  Result<LogicalProps> props = DeriveTreeProps(*root, ctx);
  if (!props.ok()) return std::nullopt;
  return best[all] +
         AlgProjectCost(cm, props->card, props->tuple_bytes).total();
}

// --- running a case ----------------------------------------------------------

struct Case {
  std::vector<std::string> tokens;
  std::string zql;          // a deck line's query
  Query query;              // a generated query: what shrinking edits
  bool generated = false;

  std::string Text() const { return generated ? query.Text() : zql; }
  std::string Line() const {
    return ::oodb::Join(tokens, " ") + " | " + Text();
  }
};

Case ParseLine(const std::string& line) {
  const size_t bar = line.find('|');
  Case c;
  for (const std::string& t : Split(line.substr(0, bar), ' ')) {
    if (!t.empty()) c.tokens.push_back(t);
  }
  c.zql = line.substr(line.find_first_not_of(' ', bar + 1));
  return c;
}

struct Parsed {
  QueryContext ctx;
  LogicalExprPtr logical;
  PhysProps required;  // ORDER BY and LIMIT
};

std::unique_ptr<Parsed> Parse(Catalog* catalog, const std::string& zql) {
  auto p = std::make_unique<Parsed>();
  p->ctx.catalog = catalog;
  auto logical =
      ParseAndSimplify(zql, &p->ctx, &p->required.sort, &p->required.limit);
  EXPECT_TRUE(logical.ok()) << logical.status();
  if (!logical.ok()) return nullptr;
  p->logical = *logical;
  return p;
}

/// Optimizes `p` with the verifier on. Ungoverned searches stop at 50,000
/// m-exprs, five times what the generator's bounds allow: a search that
/// runs away fails its case instead of hanging it.
Result<OptimizedQuery> OptimizeUnder(Parsed& p, OptimizerOptions opts) {
  GovernorOptions cap;
  cap.max_memo_mexprs = 50000;
  cap.degrade_to_greedy = false;
  QueryGovernor governor(cap);
  if (opts.governor == nullptr) opts.governor = &governor;
  opts.verify_plans = true;
  return Optimizer(p.ctx.catalog, std::move(opts))
      .Optimize(*p.logical, &p.ctx, p.required);
}

/// The select columns of `p`'s ORDER BY keys, each with its direction;
/// empty when unordered or ordered on a column the query drops.
std::vector<std::pair<size_t, bool>> OrderColumns(const Parsed& p) {
  std::vector<std::pair<size_t, bool>> keys;
  const std::vector<ScalarExprPtr>& emit = p.logical->op.emit;
  for (const SortKey& k : p.required.sort.keys) {
    auto col = std::find_if(emit.begin(), emit.end(), [&](const auto& e) {
      return e->kind() == ScalarExpr::Kind::kAttr &&
             e->binding() == k.binding && e->field() == k.field;
    });
    if (col == emit.end()) return {};
    keys.push_back({static_cast<size_t>(col - emit.begin()), k.desc});
  }
  return keys;
}

/// Stable-sorts `rows` on `keys`: reference rows arrive in scan order, the
/// tie order the engine's stable operators see.
void StableSort(Rows& rows, const std::vector<std::pair<size_t, bool>>& keys) {
  std::stable_sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    for (const auto& [col, desc] : keys) {
      int c = a[col].Compare(b[col]);
      if (c != 0) return desc ? c > 0 : c < 0;
    }
    return false;
  });
}

/// Oracle 3's row check of `got` against the reference rows `ref` (in
/// reference order). Unordered: equal multisets. Ordered: the ORDER BY
/// keys match row for row and each run of equal keys holds the same rows
/// (the last run a subset when LIMIT cuts it); when the plan reads one
/// range by file scan and keeps its order (`stable`), the sequence matches
/// a stable sort exactly.
void ExpectRows(const Rows& got, Rows ref, const Parsed& p, bool stable) {
  const std::vector<std::pair<size_t, bool>> keys = OrderColumns(p);
  const size_t limit = static_cast<size_t>(p.required.limit);
  if (keys.empty()) {  // unordered, or ordered on a column it drops
    std::vector<std::string> want = SortedRows(ref), have = SortedRows(got);
    if (limit == 0) {
      EXPECT_EQ(have, want);
    } else {
      EXPECT_EQ(have.size(), std::min(limit, want.size()));
      EXPECT_TRUE(std::includes(want.begin(), want.end(), have.begin(),
                                have.end()));
    }
    return;
  }
  auto key_of = [&](const std::vector<Value>& row) {
    std::string k;
    for (const auto& [col, desc] : keys) k += row[col].ToString() + "|";
    return k;
  };
  StableSort(ref, keys);
  const size_t n = limit > 0 ? std::min(limit, ref.size()) : ref.size();
  ASSERT_EQ(got.size(), n);
  if (stable) {
    EXPECT_EQ(RowSeq(got), RowSeq(Rows(ref.begin(), ref.begin() + n)));
    return;
  }
  for (size_t b = 0, e, full; b < n; b = e) {
    for (e = b; e < n && key_of(got[e]) == key_of(got[b]);) ++e;
    for (full = b; full < ref.size() && key_of(ref[full]) == key_of(got[b]);) {
      ++full;
    }
    ASSERT_GE(full, e) << "ORDER BY keys out of sequence at row " << b;
    std::vector<std::string> have =
        SortedRows(Rows(got.begin() + b, got.begin() + e));
    std::vector<std::string> want =
        SortedRows(Rows(ref.begin() + b, ref.begin() + full));
    EXPECT_TRUE(full == e ? have == want
                          : std::includes(want.begin(), want.end(),
                                          have.begin(), have.end()))
        << "rows of the ORDER BY run at row " << b;
  }
}

Rows ReferenceRows(const Parsed& p, ObjectStore* store) {
  auto r = EvaluateReference(*PushDown(p.logical), store, p.ctx);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r->rows : Rows{};
}

/// The row budget of a run whose reference result is `ref`: four times
/// it, so a plan that loses a filter cannot run away (a trip when no budget
/// was drawn fails the case).
GovernorOptions WithRowCap(GovernorOptions gov, const Rows& ref) {
  const int64_t cap = 4 * static_cast<int64_t>(ref.size()) + 10000;
  gov.max_exec_rows =
      gov.max_exec_rows > 0 ? std::min(gov.max_exec_rows, cap) : cap;
  return gov;
}

void RunSession(const Settings& s, const Case& c, const Parsed& p,
                const Rows& ref, LineRun* out) {
  Session::Options so;
  so.optimizer = s.opt;
  so.optimizer.max_dop = s.dop;
  so.exec.sample_limit = 1 << 22;
  so.exec.batch_size = s.batch;
  so.exec.topk = s.topk;
  so.exec.exec_faults = s.xf;
  so.governor = WithRowCap(s.gov, ref);
  so.governor.degrade_to_greedy = s.degrade;
  so.governor.max_retries = 64;
  so.retry.max_attempts = s.session;
  so.retry.degrade = s.degrade;
  if (s.adaptive) so.adaptive.replan_drift_threshold = 4.0;
  std::unique_ptr<Oo7Db> oo7 =
      s.db.starts_with("oo7") ? MakeOo7Catalog(Oo7Config(s.db)) : nullptr;
  Session sess(oo7 ? &oo7->catalog : Db(s.db, false).catalog(), so);
  ASSERT_OK(oo7 ? PopulateOo7(oo7.get(), &sess.store(), Oo7Config(s.db))
                : PopulatePaper(*Db(s.db, false).paper, &sess.store()));
  sess.store().SetFaultPolicy(s.sf);
  Result<SessionResult> r = sess.Query(c.Text());
  sess.store().SetFaultPolicy(FaultPolicy{});
  if (out != nullptr) {
    out->ran = true;
    out->status = r.status();
    if (r.ok()) {
      out->stats = r->exec;
      out->attempts = r->attempts;
    }
  }
  // A fault that ends two attempts before the ladder does must be survived.
  if (!s.sf.enabled() && !s.gov.enabled() &&
      (!s.xf.enabled() || s.xf.fail_attempts + 2 <= s.session)) {
    ASSERT_OK(r);
  }
  if (!r.ok()) {
    EXPECT_TRUE(IsGovernorStatus(r.status().code())) << r.status();
    return;
  }
  EXPECT_TRUE(r->attempts.back().status.ok());
  ExpectRows(r->rows(), ref, p, false);
}

/// Oracles 1 and 2, and oracle 3 when `execute` (its plan and run in
/// `*out` when given). `*wide` is set when a generated case plans too wide
/// to execute, so that its line needs `noexec`.
void CheckCase(const Case& c, bool execute, LineRun* out = nullptr,
               bool* wide = nullptr) {
  Result<Settings> parsed = ParseSettings(c.tokens);
  ASSERT_OK(parsed);
  const Settings& s = *parsed;
  std::unique_ptr<Parsed> p = Parse(Db(s.db, false).catalog(), c.Text());
  ASSERT_NE(p, nullptr);
  Result<OptimizedQuery> base = OptimizeUnder(*p, s.opt);
  // Only a generated draw that disables rules may leave its query
  // unplannable; a deck line, or every rule on, must plan.
  if (!c.generated || s.opt.disabled_rules.empty()) ASSERT_OK(base);
  if (!base.ok()) {
    EXPECT_NE(base.status().code(), StatusCode::kBudgetExhausted)
        << base.status();
    return;
  }
  if (!s.ablate.empty()) {
    OptimizerOptions fewer = s.opt;
    fewer.disabled_rules.push_back(s.ablate);
    Result<OptimizedQuery> ablated = OptimizeUnder(*p, fewer);
    EXPECT_TRUE(!ablated.ok() ||
                base->cost.total() <= ablated->cost.total() * (1 + 1e-9))
        << "oracle 1: disabling " << s.ablate << " finds a plan cheaper than "
        << base->cost.total();
  }
  if (s.opt.disabled_rules.empty() && !p->required.sort.IsSorted() &&
      p->required.limit == 0) {
    if (std::optional<double> dp = DpCost(p->logical, p->ctx, s.opt)) {
      EXPECT_LE(base->cost.total(), *dp * (1 + 1e-9))
          << "oracle 2: the DP finds a cheaper join tree than the memo";
    }
  }
  EXPECT_EQ(base->stats.verify_error, "");
  // Execution and the reference stay quick below 2*10^5 rows a node.
  double widest = 0;
  std::function<void(const PlanNode&)> widen = [&](const PlanNode& n) {
    widest = std::max(widest, n.logical.card);
    for (const PlanNodePtr& ch : n.children) widen(*ch);
  };
  widen(*base->plan);
  if (!execute || s.noexec) return;
  // A generated query may still estimate wider than its bounds intend.
  if (widest > 2e5 && c.generated) {
    if (wide != nullptr) *wide = true;
    return;
  }
  ASSERT_LE(widest, 2e5) << "a deck line this wide needs `noexec`";
  ObjectStore* store = Db(s.db, true).store.get();
  const Rows ref = ReferenceRows(*p, store);
  if (s.session > 0) return RunSession(s, c, *p, ref, out);
  OptimizerOptions opts = s.opt;
  opts.max_dop = s.dop;
  QueryGovernor governor(WithRowCap(s.gov, ref));
  if (s.gov.enabled()) opts.governor = &governor;
  Result<OptimizedQuery> planned =
      s.dop == 1 && !s.gov.enabled() ? base : OptimizeUnder(*p, opts);
  if (!planned.ok()) {
    EXPECT_TRUE(s.gov.enabled() && IsGovernorStatus(planned.status().code()))
        << planned.status();
    return;
  }
  EXPECT_EQ(planned->stats.verify_error, "");
  const PlanNode& plan = *planned->plan;
  if (out != nullptr) out->plan = planned->plan;
  SCOPED_TRACE("plan:\n" + PrintPlan(plan, p->ctx));
  ExecOptions eo;
  eo.sample_limit = 1 << 22;
  eo.batch_size = s.batch;
  eo.topk = s.topk;
  eo.governor = &governor;
  eo.exec_faults = s.xf;
  store->SetFaultPolicy(s.sf);
  Result<ExecStats> run = ExecutePlan(plan, store, &p->ctx, eo);
  store->SetFaultPolicy(FaultPolicy{});
  const bool faults = s.xf.enabled() || s.sf.enabled() || s.gov.enabled();
  if (out != nullptr) {
    out->ran = true;
    out->status = run.status();
    if (run.ok()) out->stats = *run;
  }
  // A run that faults may end in a typed Status; the fault-free runs
  // below still hold the plan to the reference.
  if (!run.ok()) {
    EXPECT_TRUE(faults && IsGovernorStatus(run.status().code()))
        << run.status();
  }
  bool scan_order = true, merge_order = true;  // see ExpectRows
  bool streaming = false;  // a TopK whose input arrives in order
  std::function<void(const PlanNode&)> scan = [&](const PlanNode& n) {
    const PhysOpKind k = n.op.kind;
    merge_order &= k != PhysOpKind::kExchange || n.op.merge;
    streaming |= k == PhysOpKind::kTopK &&
                 static_cast<size_t>(n.op.sort_prefix) >= n.op.sort.size();
    scan_order &= k == PhysOpKind::kFileScan || k == PhysOpKind::kFilter ||
                  k == PhysOpKind::kAlgProject || k == PhysOpKind::kSort ||
                  k == PhysOpKind::kTopK || k == PhysOpKind::kExchange;
    for (const PlanNodePtr& ch : n.children) scan(*ch);
  };
  scan(plan);
  const bool stable =
      p->ctx.bindings.size() == 1 && scan_order && merge_order;
  if (run.ok()) ExpectRows(run->sample_rows, ref, *p, stable);
  // The same plan fault-free: under faults at the same batch size, the
  // same row sequence where order is deterministic.
  ExecOptions clean = eo;
  clean.governor = nullptr;
  clean.exec_faults = ExecFaultPolicy{};
  auto rerun = [&](int batch) {
    clean.batch_size = batch;
    return ExecutePlan(plan, store, &p->ctx, clean);
  };
  const bool sequence = p->required.sort.IsSorted() && merge_order;
  if (faults && sequence && run.ok()) {
    Result<ExecStats> again = rerun(s.batch);
    ASSERT_OK(again);
    EXPECT_EQ(RowSeq(again->sample_rows), RowSeq(run->sample_rows));
  }
  // Batch 1 and batch 1024, fault-free, agree on rows and simulated
  // accounting. Simulated CPU sums per-row charges at batch 1 and per-batch
  // ones at 1024; past 10^4 rows the rounding drifts beyond the 1e-12
  // bound. A streaming TopK (its input already in order) stops its input a
  // whole batch later at batch 1024. Behind a non-merging Exchange, LIMIT
  // may keep other rows of the last run of equal keys.
  if (widest > 1e4 || streaming || (p->required.limit > 0 && !merge_order)) {
    return;
  }
  Result<ExecStats> one = !faults && s.batch == 1 ? run : rerun(1);
  Result<ExecStats> full = !faults && s.batch == 1024 ? run : rerun(1024);
  ASSERT_OK(one);
  ASSERT_OK(full);
  if (sequence) {
    EXPECT_EQ(RowSeq(one->sample_rows), RowSeq(full->sample_rows));
  }
  if (!run.ok()) ExpectRows(one->sample_rows, ref, *p, stable);
  // An Assembly or Pointer Join reads its batch's references in disk
  // order, so batch size moves its seeks: serial I/O seconds match without
  // one, and with one where a deck line says `exactio`.
  const std::vector<PhysOpKind> kinds = PlanKinds(plan);
  const bool assembly =
      std::count(kinds.begin(), kinds.end(), PhysOpKind::kAssembly) +
          std::count(kinds.begin(), kinds.end(), PhysOpKind::kPointerJoin) >
      0;
  ExpectBatchAccountingMatches(
      *full, *one, (run.ok() ? *run : *one).sample_rows,
      /*exact_io=*/s.dop == 1 && (s.exact_io || !assembly));
}

/// Every failure message `c` raises, or "" when it passes.
std::string Failures(const Case& c, bool execute, bool* wide = nullptr) {
  ::testing::TestPartResultArray results;
  {
    ::testing::ScopedFakeTestPartResultReporter reporter(
        ::testing::ScopedFakeTestPartResultReporter::INTERCEPT_ALL_THREADS,
        &results);
    CheckCase(c, execute, nullptr, wide);
  }
  std::string out;
  for (int i = 0; i < results.size(); ++i) {
    if (results.GetTestPartResult(i).failed()) {
      out += std::string(results.GetTestPartResult(i).message()) + "\n";
    }
  }
  return out;
}

/// Drops ranges, conjuncts, select columns, ORDER BY/LIMIT and config
/// tokens while `c` keeps failing the same way (the first failure line,
/// numbers aside).
Case Shrink(Case c, bool execute) {
  auto kind = [&](const Case& t) {
    std::string f = Failures(t, execute);
    f.resize(std::min(f.size(), f.find('\n')));
    std::erase_if(f, [](char ch) { return std::isdigit(ch) || ch == '.'; });
    return f;
  };
  const std::string failing = kind(c);
  for (bool progress = true; progress;) {
    progress = false;
    std::vector<Case> smaller;
    for (size_t i = 0; i < c.query.from.size(); ++i) {
      if (std::optional<Query> q = c.query.WithoutRange(i)) {
        smaller.push_back(c);
        smaller.back().query = *q;
      }
    }
    for (auto list : {&Query::where, &Query::select, &Query::order}) {
      for (size_t i = 0; i < (c.query.*list).size(); ++i) {
        Case t = c;
        std::vector<std::string>& items = t.query.*list;
        items.erase(items.begin() + static_cast<long>(i));
        if (t.query.order.empty()) t.query.limit = 0;
        if (!t.query.select.empty()) smaller.push_back(t);
      }
    }
    smaller.push_back(c);
    smaller.back().query.limit = 0;
    for (size_t i = 0; i < c.tokens.size(); ++i) {
      if (c.tokens[i].starts_with("db=")) continue;  // the query's schema
      smaller.push_back(c);
      smaller.back().tokens.erase(smaller.back().tokens.begin() +
                                  static_cast<long>(i));
    }
    for (Case& t : smaller) {
      if (t.Line() != c.Line() && kind(t) == failing) {
        c = std::move(t);
        progress = true;
        break;
      }
    }
  }
  return c;
}

Case Draw(Slice slice, int seed, bool ordered) {
  Rng rng(0x5eed0000ull + static_cast<uint64_t>(slice) * 1000003ull +
          static_cast<uint64_t>(seed) * 7919ull + (ordered ? 1 : 0));
  const bool oo7 = rng.Bernoulli(
      slice == Slice::kParallel || slice == Slice::kChaos ? 0.7 : 0.3);
  Case c;
  c.query = Generate(rng, kSchemas[oo7 ? 1 : 0], ordered);
  c.generated = true;
  c.tokens = DrawConfig(rng, slice, oo7);
  return c;
}

/// `c`'s line, with `noexec` when it plans too wide to execute, as a deck
/// line must say.
std::string DeckLine(Case c, bool execute) {
  bool wide = false;
  if (c.generated) Failures(c, execute, &wide);
  if (wide) c.tokens.insert(c.tokens.begin(), "noexec");
  return c.Line();
}

void Report(const Case& c, bool execute) {
  std::string failures = Failures(c, execute);
  if (failures.empty()) return;
  ADD_FAILURE() << "case: " << DeckLine(c, execute) << "\n"
                << failures << "repro: "
                << DeckLine(c.generated ? Shrink(c, execute) : c, execute);
}

}  // namespace

LineRun ExpectLine(const std::string& line) {
  SCOPED_TRACE("deck line: " + line);
  LineRun run;
  CheckCase(ParseLine(line), /*execute=*/true, &run);
  return run;
}

void ExpectSeed(Slice slice, int seed, bool ordered) {
  Report(Draw(slice, seed, ordered), /*execute=*/true);
}

void ExpectAblationNeverCheaper(const char* rule,
                                const std::vector<std::string>& lines,
                                int seeds) {
  std::vector<Case> cases;
  cases.reserve(lines.size() + static_cast<size_t>(seeds));
  for (const std::string& line : lines) cases.push_back(ParseLine(line));
  for (int seed = 0; seed < seeds; ++seed) {
    cases.push_back(Draw(Slice::kSerial, seed, false));
  }
  for (Case& c : cases) {
    std::erase_if(c.tokens, [](const std::string& t) {
      return t.starts_with("ablate=");
    });
    c.tokens.push_back(std::string("ablate=") + rule);
    Report(c, /*execute=*/false);
  }
}

std::vector<std::string> ReferenceSequence(const std::string& line) {
  Case c = ParseLine(line);
  Result<Settings> s = ParseSettings(c.tokens);
  EXPECT_OK(s);
  if (!s.ok()) return {};
  std::unique_ptr<Parsed> p = Parse(Db(s->db, false).catalog(), c.zql);
  if (p == nullptr) return {};
  Rows rows = ReferenceRows(*p, Db(s->db, true).store.get());
  StableSort(rows, OrderColumns(*p));
  if (p->required.limit > 0) {
    rows.resize(std::min(rows.size(), static_cast<size_t>(p->required.limit)));
  }
  return RowSeq(rows);
}

std::pair<double, std::optional<double>> MemoAndDpCost(
    const std::string& line) {
  Case c = ParseLine(line);
  Result<Settings> s = ParseSettings(c.tokens);
  EXPECT_OK(s);
  std::unique_ptr<Parsed> p =
      Parse(Db(s.ok() ? s->db : "paper", false).catalog(), c.zql);
  if (p == nullptr || !s.ok()) return {-1, std::nullopt};
  Result<OptimizedQuery> q = OptimizeUnder(*p, s->opt);
  EXPECT_OK(q);
  return {q.ok() ? q->cost.total() : -1, DpCost(p->logical, p->ctx, s->opt)};
}

SearchStats LineSearchStats(const std::string& line) {
  Case c = ParseLine(line);
  Result<Settings> s = ParseSettings(c.tokens);
  EXPECT_OK(s);
  std::unique_ptr<Parsed> p =
      Parse(Db(s.ok() ? s->db : "paper", false).catalog(), c.zql);
  if (p == nullptr || !s.ok()) return {};
  Result<OptimizedQuery> q = OptimizeUnder(*p, s->opt);
  EXPECT_OK(q);
  return q.ok() ? q->stats : SearchStats{};
}

}  // namespace testing
}  // namespace oodb
