// The repository benchmark program. One closed-loop client drives a Session
// with one statement at a time: set-up (timed, repeated), an untimed
// warm-up pass over the seeded statement deck, then whole passes over the
// deck until --seconds have elapsed. Outputs are checked against the
// reference evaluator afterwards. With --trace 1 every statement is also
// run through the traced replica (replica.cc) for the per-layer ledger.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Runs on the reduced instance (the self-test's scale).
  bool tiny = false;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (k == "--selftest") {
      a->selftest = true;
    } else if (k == "--tiny") {
      a->tiny = true;
    } else if (k == "--workload" && value(&v)) {
      a->workload = v;
    } else if (k == "--seed" && value(&v)) {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds" && value(&v)) {
      a->seconds = std::atof(v);
    } else if (k == "--trace" && value(&v)) {
      a->trace = std::atoi(v) != 0;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", k.c_str());
      return false;
    }
  }
  return a->selftest || (!a->workload.empty() && a->seconds > 0);
}

/// One printed metric.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(const std::vector<Metric>& metrics, bool correct,
                 int64_t attempted, int64_t failed) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Cost of one clock read; the replica's spans cost
/// ReplicaSample::clock_reads of these per statement.
double ClockReadSeconds() {
  constexpr int kReads = 100000;
  double sink = 0;
  const double t0 = NowSeconds();
  for (int i = 0; i < kReads; ++i) sink += NowSeconds();
  const double per = (NowSeconds() - t0) / kReads;
  return sink > 0 ? per : 0.0;
}

/// True when a measured execution returned what the warm-up execution of
/// the same deck statement returned. Unordered results larger than the
/// Session's sample can be sampled differently under Exchange, so they
/// compare by row count only.
bool SameOutcome(const Outcome& a, const Outcome& b, bool ordered,
                 int sample_limit) {
  if (!a.ok || !b.ok || a.rows != b.rows) return false;
  if (!ordered && a.rows > sample_limit) return true;
  return a.digest == b.digest;
}

/// Aggregates of the traced replica over the measured statements.
struct Ledger {
  int64_t n = 0;
  double parse = 0, simplify = 0, fingerprint = 0, lookup = 0, search = 0,
         plant = 0, insert = 0, exec = 0, exec_cpu = 0, wall = 0;
  double clock_reads = 0;
  double session = 0;
  double logical_ops = 0;
  int64_t probes = 0, hits = 0, inserts = 0;
  double groups = 0, mexprs = 0, phys = 0, xform = 0, impl = 0, enf = 0;
  double new_mexprs = 0;
  double log_err_sum = 0;
  int64_t log_err_n = 0;
  double exchanges = 0, dop = 0;
  double rows_out = 0, batches = 0, scanned = 0, profiled_out = 0;
  double batch_hits = 0, batch_misses = 0, worker_tasks = 0;
  double pages = 0, buf_hits = 0, seq = 0, random = 0, sim_io = 0,
         sim_cpu = 0;

  void Add(const ReplicaSample& s, double session_s) {
    ++n;
    parse += s.parse_s;
    simplify += s.simplify_s;
    fingerprint += s.fingerprint_s;
    lookup += s.lookup_s;
    search += s.search_s;
    plant += s.plant_s;
    insert += s.insert_s;
    exec += s.exec_s;
    exec_cpu += s.exec_cpu_s;
    wall += s.wall_s;
    clock_reads += s.clock_reads;
    session += session_s;
    logical_ops += s.logical_ops;
    probes += s.cache_probed;
    hits += s.cache_hit;
    inserts += s.inserted;
    const SearchStats& st = s.search;
    groups += st.groups;
    mexprs += st.logical_mexprs;
    phys += st.phys_alternatives;
    xform += st.transformation_firings;
    impl += st.impl_firings;
    enf += st.enforcer_firings;
    if (st.transformation_firings > 0) {
      new_mexprs += st.logical_mexprs - s.logical_ops;
    }
    const double sim = s.exec.sim_total_s();
    if (s.serial && s.est_cost > 0 && sim > 0) {
      log_err_sum += std::fabs(std::log(s.est_cost / sim));
      ++log_err_n;
    }
    exchanges += s.exchanges;
    dop += s.dop;
    rows_out += static_cast<double>(s.exec.rows);
    batches += static_cast<double>(s.batches);
    scanned += static_cast<double>(s.rows_scanned);
    profiled_out += static_cast<double>(s.profiled_rows_out);
    batch_hits += static_cast<double>(s.batch_hits);
    batch_misses += static_cast<double>(s.batch_misses);
    worker_tasks += static_cast<double>(s.worker_tasks);
    pages += static_cast<double>(s.exec.pages_read);
    buf_hits += static_cast<double>(s.exec.buffer_hits);
    seq += static_cast<double>(s.exec.seq_reads);
    random += static_cast<double>(s.exec.random_reads);
    sim_io += s.exec.sim_io_s;
    sim_cpu += s.exec.sim_cpu_s;
  }

  double Spans() const {
    return parse + simplify + fingerprint + lookup + search + plant + insert +
           exec;
  }
};

struct ClassTally {
  int64_t count = 0;
  double wall_s = 0;
  std::vector<double> lat_ms;
  double search_s = 0, exec_s = 0;  ///< traced runs: replica spans
};

int Run(const Args& args) {
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  WorkloadSpec w = *found;
  if (args.tiny) {
    w.full = w.reduced;
    w.setup_reps = 1;
  }
  const double calib_start = CalibrationMs();

  // --- Set-up: catalog, population and index build, repeated. ---
  std::vector<double> setup_s, catalog_s, populate_s;
  std::unique_ptr<Instance> inst;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    inst.reset();
    const double t0 = NowSeconds();
    Result<std::unique_ptr<Instance>> built = BuildInstance(w, w.full);
    setup_s.push_back(NowSeconds() - t0);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    inst = std::move(*built);
    catalog_s.push_back(inst->catalog_s);
    populate_s.push_back(inst->populate_s);
  }
  Session& session = *inst->session;
  const int sample_limit = session.options().exec.sample_limit;

  // --- Untimed warm-up: one pass over the deck, which also fills the
  // plan cache and records each statement's result for later passes. ---
  const std::vector<Statement> deck = MakeDeck(w, w.full, args.seed);
  std::vector<Outcome> expected(deck.size());
  const double warm0 = NowSeconds();
  auto ordered = [&w](const Statement& st) {
    return !w.classes[st.cls].order_cols.empty();
  };
  for (size_t i = 0; i < deck.size(); ++i) {
    expected[i] = ToOutcome(session.Query(deck[i].text), ordered(deck[i]));
  }
  const double warmup_s = NowSeconds() - warm0;
  std::unique_ptr<Replica> replica;
  if (args.trace) {
    replica = std::make_unique<Replica>(&session);
    for (const Statement& s : deck) replica->Run(s.text);
  }

  // --- Measured loop: whole passes over the deck. ---
  std::vector<ClassTally> tally(w.classes.size());
  std::vector<int64_t> runs_of(deck.size(), 0), failed_runs(deck.size(), 0);
  std::vector<double> lat_ms;
  int64_t attempted = 0;
  Ledger ledger;
  PlanCacheStats cache0;
  if (replica != nullptr && replica->cache() != nullptr) {
    cache0 = replica->cache()->stats();
  }
  const double steal0 = StealMs();
  const int64_t nivcsw0 = InvoluntaryContextSwitches();
  // Every deck statement runs once per pass. Throughput, the latency
  // percentiles and CPU time are taken from each statement's fastest run
  // in the measurement (its best wall time and, separately, its least
  // process CPU time): a shared virtual machine switches between a quiet
  // and a contended state for seconds to minutes at a time, 20-50% apart
  // in speed on the one measured in README.md, and a statement's best run
  // is one the contention missed, while a median or a total over the run
  // moves with the share of the run each state got.
  // The 95th percentile is taken over the deck's best times too: over
  // every run it lands in either state's band, depending on the share of
  // the run each state got, and a pool of each statement's ten fastest
  // runs needs ten quiet runs of the slowest class, which a contended run
  // does not have (README.md). Simulated seconds are summed per pass, in
  // deck order, so at dop 1 every pass sums to the same bits and the
  // median pass is exact.
  const double cpu0 = ProcessCpuSeconds();
  const double t_start = NowSeconds();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> pass_sim, best_ms(deck.size(), kInf),
      best_cpu_ms(deck.size(), kInf);
  do {
    double sim = 0;
    for (size_t i = 0; i < deck.size(); ++i) {
      const Statement& st = deck[i];
      const double c0 = ProcessCpuSeconds();
      const double t0 = NowSeconds();
      Result<SessionResult> r = session.Query(st.text);
      const double dt = NowSeconds() - t0;
      const double dc = ProcessCpuSeconds() - c0;
      best_ms[i] = std::min(best_ms[i], dt * 1e3);
      best_cpu_ms[i] = std::min(best_cpu_ms[i], dc * 1e3);
      Outcome got = ToOutcome(std::move(r), ordered(st));
      ++attempted;
      ++runs_of[i];
      lat_ms.push_back(dt * 1e3);
      tally[st.cls].count++;
      tally[st.cls].wall_s += dt;
      tally[st.cls].lat_ms.push_back(dt * 1e3);
      sim += got.sim_s;
      bool ok = SameOutcome(got, expected[i], ordered(st), sample_limit);
      if (replica != nullptr) {
        ReplicaSample s = replica->Run(st.text);
        ledger.Add(s, dt);
        tally[st.cls].search_s += s.search_s;
        tally[st.cls].exec_s += s.exec_s;
        // The replica must return what Session::Query returned.
        ok = ok && s.ok && s.exec.rows == got.rows;
      }
      if (!ok) {
        ++failed_runs[i];
        if (!got.ok) {
          std::fprintf(stderr, "error: %s: %s\n", st.text.c_str(),
                       got.error.c_str());
        }
      }
    }
    pass_sim.push_back(sim);
  } while (NowSeconds() - t_start < args.seconds);
  const double wall = NowSeconds() - t_start;
  const double cpu = ProcessCpuSeconds() - cpu0;
  const double steal_ms = StealMs() - steal0;
  const int64_t nivcsw = InvoluntaryContextSwitches() - nivcsw0;
  const double peak_rss = PeakRssMb();
  PlanCacheStats cache1;
  if (replica != nullptr && replica->cache() != nullptr) {
    cache1 = replica->cache()->stats();
  }

  // --- Output checks against the reference evaluator. Join classes run
  // on the reduced instance built from the same generator and seed. ---
  std::vector<std::string> bad(deck.size());
  std::unique_ptr<Instance> reduced;
  std::vector<Statement> reduced_deck;
  for (size_t i = 0; i < deck.size(); ++i) {
    const ClassSpec& cls = w.classes[deck[i].cls];
    if (!cls.join) {
      bad[i] = CheckAgainstReference(inst.get(), cls, deck[i].text,
                                     expected[i]);
      continue;
    }
    if (reduced == nullptr) {
      Result<std::unique_ptr<Instance>> built = BuildInstance(w, w.reduced);
      if (!built.ok()) {
        std::fprintf(stderr, "reduced set-up failed: %s\n",
                     built.status().ToString().c_str());
        return 1;
      }
      reduced = std::move(*built);
      reduced_deck = MakeDeck(w, w.reduced, args.seed);
    }
    const std::string& text = reduced_deck[i].text;
    bad[i] = expected[i].ok
                 ? CheckAgainstReference(
                       reduced.get(), cls, text,
                       ToOutcome(reduced->session->Query(text),
                                 ordered(deck[i])))
                 : "engine error: " + expected[i].error;
  }
  int64_t failed = 0;
  for (size_t i = 0; i < deck.size(); ++i) {
    if (bad[i].empty()) {
      failed += failed_runs[i];
      continue;
    }
    std::fprintf(stderr, "mismatch [%s] %s: %s\n",
                 w.classes[deck[i].cls].name, deck[i].text.c_str(),
                 bad[i].c_str());
    failed += runs_of[i];  // every execution of a wrong statement failed
  }
  const double check_s = NowSeconds() - t_start - wall;
  const double calib_end = CalibrationMs();

  // --- Report. ---
  const double n = static_cast<double>(attempted);
  std::printf("workload %s seed %llu: %lld statements in %.3f s, %zu per pass\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(attempted), wall, deck.size());
  std::printf("%-16s %6s %8s %10s %10s %10s %10s\n", "class", "count",
              "share", "wall_share", "p50_ms", "search_ms", "exec_ms");
  double class_wall = 0;
  for (const ClassTally& t : tally) class_wall += t.wall_s;
  for (size_t c = 0; c < w.classes.size(); ++c) {
    const double cn = static_cast<double>(tally[c].count);
    std::printf("%-16s %6lld %8.3f %10.3f %10.4f %10.4f %10.4f\n",
                w.classes[c].name, static_cast<long long>(tally[c].count),
                Ratio(cn, n), Ratio(tally[c].wall_s, class_wall),
                Median(tally[c].lat_ms), Ratio(tally[c].search_s * 1e3, cn),
                Ratio(tally[c].exec_s * 1e3, cn));
  }
  std::printf("phases: setup %.3f s (builds",
              std::accumulate(setup_s.begin(), setup_s.end(), 0.0));
  for (double b : setup_s) std::printf(" %.3f", b);
  std::printf(") warmup %.3f s measure %.3f s (%lld passes) check %.3f s\n",
              warmup_s, wall, static_cast<long long>(pass_sim.size()),
              check_s);
  // The run's raw figures, for comparison with the best-run metrics.
  std::printf("all runs: stmts_per_s %.4g stmt_p50_ms %.4g "
              "stmt_p95_ms %.4g cpu_ms_per_stmt %.4g\n",
              n / wall, Median(lat_ms), Percentile(lat_ms, 0.95),
              cpu * 1e3 / n);
  std::printf("host: steal_ms %.1f nivcsw %lld calib_ms %.2f/%.2f\n",
              steal_ms, static_cast<long long>(nivcsw), calib_start,
              calib_end);

  std::vector<Metric> m;
  if (!args.trace) {
    const double deck_n = static_cast<double>(deck.size());
    m = {{"stmts_per_s",
          deck_n * 1e3 / std::accumulate(best_ms.begin(), best_ms.end(), 0.0),
          "1/s"},
         {"stmt_p50_ms", Median(best_ms), "ms"},
         {"stmt_p95_ms", Percentile(best_ms, 0.95), "ms"},
         {"cpu_ms_per_stmt",
          std::accumulate(best_cpu_ms.begin(), best_cpu_ms.end(), 0.0) /
              deck_n,
          "ms"},
         {"sim_s_per_stmt",
          Median(pass_sim) / static_cast<double>(deck.size()), "s"},
         {"peak_rss_mb", peak_rss, "MB"},
         {"setup_s", Median(setup_s), "s"},
         {"ok_ratio", 1.0 - static_cast<double>(failed) / n, "fraction"}};
  } else {
    const Ledger& L = ledger;
    const double ln = static_cast<double>(std::max<int64_t>(1, L.n));
    const double spans = L.Spans();
    std::printf("spans (share of replica wall): parse %.3f simplify %.3f "
                "fingerprint %.3f lookup %.3f search %.3f plant %.3f "
                "insert %.3f exec %.3f coverage %.3f\n",
                Ratio(L.parse, L.wall), Ratio(L.simplify, L.wall),
                Ratio(L.fingerprint, L.wall), Ratio(L.lookup, L.wall),
                Ratio(L.search, L.wall), Ratio(L.plant, L.wall),
                Ratio(L.insert, L.wall), Ratio(L.exec, L.wall),
                Ratio(spans, L.wall));
    m = {{"query.parse_us", L.parse * 1e6 / ln, "us"},
         {"query.simplify_us", L.simplify * 1e6 / ln, "us"},
         {"query.logical_ops", L.logical_ops / ln, "count"},
         {"plan_cache.fingerprint_us", L.fingerprint * 1e6 / ln, "us"},
         {"plan_cache.lookup_us", L.lookup * 1e6 / ln, "us"},
         {"plan_cache.hit_ratio",
          Ratio(static_cast<double>(L.hits), static_cast<double>(L.probes)),
          "ratio"},
         {"plan_cache.inserts", static_cast<double>(L.inserts) / ln, "count"},
         {"plan_cache.evictions",
          static_cast<double>(cache1.evictions - cache0.evictions) / ln,
          "count"},
         {"volcano.search_ms", L.search * 1e3 / ln, "ms"},
         {"volcano.groups", L.groups / ln, "count"},
         {"volcano.logical_mexprs", L.mexprs / ln, "count"},
         {"volcano.phys_alternatives", L.phys / ln, "count"},
         {"volcano.transformation_firings", L.xform / ln, "count"},
         {"volcano.impl_firings", L.impl / ln, "count"},
         {"volcano.enforcer_firings", L.enf / ln, "count"},
         {"volcano.new_mexprs_per_firing", Ratio(L.new_mexprs, L.xform),
          "ratio"},
         {"cost.est_sim_log_error",
          Ratio(L.log_err_sum, static_cast<double>(L.log_err_n)), "ln"},
         {"parallel.plant_us", L.plant * 1e6 / ln, "us"},
         {"parallel.exchanges", L.exchanges / ln, "count"},
         {"parallel.mean_dop", L.dop / ln, "dop"},
         {"exec.ms", L.exec * 1e3 / ln, "ms"},
         {"exec.rows_out", L.rows_out / ln, "count"},
         {"exec.batches", L.batches / ln, "count"},
         {"exec.rows_scanned_per_row_out", Ratio(L.scanned, L.profiled_out),
          "ratio"},
         {"batch_pool.hit_ratio",
          Ratio(L.batch_hits, L.batch_hits + L.batch_misses), "ratio"},
         {"exchange.worker_tasks", L.worker_tasks / ln, "count"},
         {"exchange.cpu_over_wall", Ratio(L.exec_cpu, L.exec), "ratio"},
         {"storage.pages_read", L.pages / ln, "count"},
         {"storage.buffer_hit_ratio", Ratio(L.buf_hits, L.buf_hits + L.pages),
          "ratio"},
         {"storage.random_read_ratio", Ratio(L.random, L.random + L.seq),
          "ratio"},
         {"storage.sim_io_s", L.sim_io / ln, "s"},
         {"storage.sim_cpu_s", L.sim_cpu / ln, "s"},
         {"session.query_us", L.session * 1e6 / ln, "us"},
         {"session.self_us", (L.session - spans) * 1e6 / ln, "us"},
         {"setup.catalog_s", Median(catalog_s), "s"},
         {"setup.populate_s", Median(populate_s), "s"},
         {"setup.warmup_s", warmup_s, "s"},
         {"trace.overhead_pct",
          ClockReadSeconds() * L.clock_reads * 100.0 / L.session,
          "%"},
         {"trace.span_coverage", Ratio(spans, L.wall), "ratio"},
         {"host.steal_ms", steal_ms, "ms"},
         {"host.nivcsw", static_cast<double>(nivcsw), "count"},
         {"host.calib_ms", 0.5 * (calib_start + calib_end), "ms"}};
  }
  std::printf("%s\n", Json(m, failed == 0, attempted, failed).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int SelfTest();

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--tiny] | --selftest\n");
    return 2;
  }
  return args.selftest ? perfbench::SelfTest() : perfbench::Run(args);
}
