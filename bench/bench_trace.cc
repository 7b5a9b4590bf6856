// Observability overhead gates: the EXPLAIN ANALYZE / optimizer-trace layer
// must be effectively free when off and cheap when on.
//
// With tracing off the instrumented paths ARE the seed paths — a null
// trace_sink records nothing (one pointer test per would-be event) and an
// un-analyzed execution never wraps an operator — so the "off" gate is
// structural. What this bench measures and gates is the *on* cost:
//
//   1. optimizer search with an OptTrace sink attached vs. null sink:
//      the optimize time ratio must stay under 1.03 (<3%);
//   2. the OO7 scan-filter-join pipeline executed with ANALYZE on vs. off,
//      serially and at max_dop 4 (where every worker records its
//      operators' I/O on its own stream): the wall time ratio must stay
//      under 1.10 (<10%) for each.
//
// Every sample is one batch of repetitions that runs at least
// kMinBatchSeconds (10 ms), so no gate rests on a single optimization or
// execution of a fraction of a millisecond. Off and on batches interleave,
// and each ratio gated is the median of the per-sample ratios (see Arms).
//
// Results go to BENCH_trace.json; the process also dumps the metrics
// registry to metrics_snapshot.txt (the CI artifact proving the registry is
// wired end-to-end). Nonzero exit when a gate fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/oodb.h"
#include "src/trace/opt_trace.h"
#include "src/workloads/oo7.h"

namespace oodb {
namespace {

Oo7Options BenchConfig() {
  Oo7Options o;
  o.num_composite_parts = 400;
  o.atomic_per_composite = 120;  // 48000 atomic parts through the pipeline
  o.complex_per_module = 4;
  o.base_per_complex = 8;
  o.num_build_dates = 10;
  return o;
}

constexpr const char* kPipeline =
    "SELECT a.id, p.id FROM AtomicPart a IN AtomicParts, "
    "CompositePart p IN CompositeParts "
    "WHERE a.partOf == p && a.x > 100 && a.y < 900 && p.buildDate >= 2;";

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The shortest batch a gate sample may time, and the samples per arm.
constexpr double kMinBatchSeconds = 0.010;
constexpr int kSamples = 60;

/// Wall seconds of one optimization of the pipeline query under `sink`
/// (parsing and set-up are not timed).
double OneOptimizeSeconds(const Catalog& catalog, OptTrace* sink) {
  QueryContext ctx;
  ctx.catalog = &catalog;
  auto logical = ParseAndSimplify(kPipeline, &ctx);
  if (!logical.ok()) {
    std::fprintf(stderr, "parse: %s\n", logical.status().ToString().c_str());
    std::exit(1);
  }
  OptimizerOptions opts;
  opts.trace_sink = sink;
  Optimizer opt(&catalog, std::move(opts));
  if (sink != nullptr) sink->Clear();
  double t0 = Now();
  auto planned = opt.Optimize(**logical, &ctx);
  double t1 = Now();
  if (!planned.ok()) {
    std::fprintf(stderr, "optimize: %s\n",
                 planned.status().ToString().c_str());
    std::exit(1);
  }
  return t1 - t0;
}

/// Wall seconds of one execution of `plan`.
double OneExecuteSeconds(const PlanNode& plan, ObjectStore* store,
                         QueryContext* ctx, bool analyze) {
  ExecOptions eo;
  eo.batch_size = 1024;
  eo.sample_limit = 0;
  eo.analyze = analyze;
  double t0 = Now();
  auto r = ExecutePlan(plan, store, ctx, eo);
  double t1 = Now();
  if (!r.ok()) {
    std::fprintf(stderr, "execute: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return t1 - t0;
}

/// One gated comparison over interleaved batch samples: the best seconds
/// per call of each arm, and the overhead as the median over samples of
/// the on/off ratio of the two batches taken back to back. A ratio of
/// adjacent batches cancels the slow and fast phases of a shared host,
/// which the two arms' separate minima do not.
struct Arms {
  double off = 1e30, on = 1e30;
  int reps = 1;
  std::vector<double> ratios;
  double overhead() const {
    std::vector<double> r = ratios;
    std::sort(r.begin(), r.end());
    const size_t n = r.size();
    return n % 2 == 1 ? r[n / 2] : 0.5 * (r[n / 2 - 1] + r[n / 2]);
  }
};

/// Runs kSamples interleaved off/on batches. `one(on)` returns the timed
/// seconds of one call; a batch's seconds are the sum over its calls, and
/// `reps` doubles until an "off" batch reaches kMinBatchSeconds. The arm
/// that runs first alternates, so neither side always runs second.
template <typename Fn>
Arms Compare(Fn&& one) {
  auto batch = [&](bool on, int reps) {
    double s = 0.0;
    for (int i = 0; i < reps; ++i) s += one(on);
    return s / reps;
  };
  Arms a;
  while (batch(false, a.reps) * a.reps < kMinBatchSeconds) a.reps *= 2;
  for (int i = 0; i < kSamples; ++i) {
    double off = 0.0, on = 0.0;
    for (bool arm_on : {i % 2 == 1, i % 2 == 0}) {
      (arm_on ? on : off) = batch(arm_on, a.reps);
    }
    a.off = std::min(a.off, off);
    a.on = std::min(a.on, on);
    a.ratios.push_back(on / off);
  }
  return a;
}

/// The pipeline query planned with at most `max_dop` workers.
std::shared_ptr<const PlanNode> PlanPipeline(const Catalog& catalog,
                                             QueryContext* ctx, int max_dop) {
  auto logical = ParseAndSimplify(kPipeline, ctx);
  if (!logical.ok()) {
    std::fprintf(stderr, "parse: %s\n", logical.status().ToString().c_str());
    std::exit(1);
  }
  OptimizerOptions opts;
  opts.max_dop = max_dop;
  Optimizer opt(&catalog, std::move(opts));
  auto planned = opt.Optimize(**logical, ctx);
  if (!planned.ok()) {
    std::fprintf(stderr, "optimize: %s\n",
                 planned.status().ToString().c_str());
    std::exit(1);
  }
  return planned->plan;
}

}  // namespace

int Main() {
  auto made = MakeOo7(BenchConfig());
  if (!made.ok()) {
    std::fprintf(stderr, "oo7 setup: %s\n", made.status().ToString().c_str());
    return 1;
  }
  Oo7Instance instance = std::move(made).value();
  ObjectStore& store = *instance.store;
  Catalog& catalog = instance.db->catalog;

  // Gate 1: optimizer search trace.
  OptTrace sink;
  const Arms opt = Compare([&](bool on) {
    return OneOptimizeSeconds(catalog, on ? &sink : nullptr);
  });
  std::printf(
      "optimize: trace off %.6fs, trace on %.6fs  (%.3fx, %d per sample, "
      "%lld events)\n",
      opt.off, opt.on, opt.overhead(), opt.reps,
      static_cast<long long>(sink.recorded()));
  std::printf("  events: rule-fired %lld, group-explored %lld, "
              "winner-replaced %lld, enforcer %lld\n",
              static_cast<long long>(sink.count(OptEventKind::kRuleFired)),
              static_cast<long long>(sink.count(OptEventKind::kGroupExplored)),
              static_cast<long long>(
                  sink.count(OptEventKind::kWinnerReplaced)),
              static_cast<long long>(
                  sink.count(OptEventKind::kEnforcerInserted)));

  // Gate 2: EXPLAIN ANALYZE execution profile, serial and at max_dop 4.
  QueryContext ctx, par_ctx;
  ctx.catalog = &catalog;
  par_ctx.catalog = &catalog;
  std::shared_ptr<const PlanNode> plan = PlanPipeline(catalog, &ctx, 1);
  std::shared_ptr<const PlanNode> par_plan =
      PlanPipeline(catalog, &par_ctx, 4);
  if (CountOps(*par_plan, PhysOpKind::kExchange) == 0) {
    std::fprintf(stderr, "max_dop 4 planted no Exchange\n");
    return 1;
  }
  const Arms exec = Compare([&](bool on) {
    return OneExecuteSeconds(*plan, &store, &ctx, on);
  });
  const Arms par = Compare([&](bool on) {
    return OneExecuteSeconds(*par_plan, &store, &par_ctx, on);
  });
  std::printf("execute: analyze off %.6fs, analyze on %.6fs  (%.3fx, %d per "
              "sample)\n",
              exec.off, exec.on, exec.overhead(), exec.reps);
  std::printf("execute dop 4: analyze off %.6fs, analyze on %.6fs  (%.3fx, "
              "%d per sample)\n",
              par.off, par.on, par.overhead(), par.reps);

  constexpr double kOptGate = 1.03;
  constexpr double kExecGate = 1.10;
  bool opt_ok = opt.overhead() < kOptGate;
  bool exec_ok = exec.overhead() < kExecGate;
  bool par_ok = par.overhead() < kExecGate;
  std::printf("gates: trace %.3fx < %.2fx %s, analyze %.3fx < %.2fx %s, "
              "analyze dop 4 %.3fx < %.2fx %s\n",
              opt.overhead(), kOptGate, opt_ok ? "PASS" : "FAIL",
              exec.overhead(), kExecGate, exec_ok ? "PASS" : "FAIL",
              par.overhead(), kExecGate, par_ok ? "PASS" : "FAIL");
  const bool pass = opt_ok && exec_ok && par_ok;

  std::FILE* json = std::fopen("BENCH_trace.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_trace.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"opt_seconds_trace_off\": %.6f,\n", opt.off);
  std::fprintf(json, "  \"opt_seconds_trace_on\": %.6f,\n", opt.on);
  std::fprintf(json, "  \"opt_trace_overhead\": %.4f,\n", opt.overhead());
  std::fprintf(json, "  \"opt_reps_per_sample\": %d,\n", opt.reps);
  std::fprintf(json, "  \"opt_trace_events\": %lld,\n",
               static_cast<long long>(sink.recorded()));
  std::fprintf(json, "  \"exec_seconds_analyze_off\": %.6f,\n", exec.off);
  std::fprintf(json, "  \"exec_seconds_analyze_on\": %.6f,\n", exec.on);
  std::fprintf(json, "  \"analyze_overhead\": %.4f,\n", exec.overhead());
  std::fprintf(json, "  \"exec_reps_per_sample\": %d,\n", exec.reps);
  std::fprintf(json, "  \"exec_dop4_seconds_analyze_off\": %.6f,\n",
               par.off);
  std::fprintf(json, "  \"exec_dop4_seconds_analyze_on\": %.6f,\n", par.on);
  std::fprintf(json, "  \"analyze_dop4_overhead\": %.4f,\n",
               par.overhead());
  std::fprintf(json, "  \"exec_dop4_reps_per_sample\": %d,\n", par.reps);
  std::fprintf(json, "  \"gates\": {\"opt_trace\": %.2f, \"analyze\": %.2f},\n",
               kOptGate, kExecGate);
  std::fprintf(json, "  \"pass\": %s\n", pass ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote BENCH_trace.json\n");

  // The metrics snapshot artifact: everything the process touched.
  std::FILE* snap = std::fopen("metrics_snapshot.txt", "w");
  if (snap != nullptr) {
    std::string text = MetricsRegistry::Global().TextSnapshot();
    std::fwrite(text.data(), 1, text.size(), snap);
    std::fclose(snap);
    std::printf("wrote metrics_snapshot.txt\n");
  }

  return pass ? 0 : 2;
}

}  // namespace oodb

int main() { return oodb::Main(); }
