// Shared declarations of the repository benchmark (see README.md in this
// directory): workload specifications, seeded statement decks, database
// instances, output checking against the reference evaluator, the traced
// per-layer replica, and host diagnostics.
#ifndef OODB_PERFBENCH_BENCH_H_
#define OODB_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/oodb.h"
#include "src/workloads/oo7.h"

namespace perfbench {

using namespace oodb;

/// One statement class of a workload: how many copies it gets per deck and
/// how its output is checked.
struct ClassSpec {
  const char* name;
  int weight;  ///< statements of this class in one deck
  /// Value joins are checked on the reduced instance only: the reference
  /// evaluator runs joins as nested loops, far too slow at full scale.
  bool join = false;
  /// ORDER BY classes: output column indexes of the sort keys, in key
  /// order (every key is projected, so the reference rows can be ordered).
  std::vector<int> order_cols = {};
};

/// Sizes of one database instance. `oo7` is used by the OO7 workloads,
/// `paper_scale` / `paper_plants` by paper-search.
struct InstanceConfig {
  Oo7Options oo7;
  double paper_scale = 1.0;
  int64_t paper_plants = 100;
};

struct WorkloadSpec {
  std::string name;
  bool paper = false;  ///< paper Table 1 database; otherwise OO7
  std::vector<ClassSpec> classes;
  /// The statement text of class `cls` with literals drawn from `rng`.
  std::string (*generate)(int cls, Rng& rng, const InstanceConfig& c) =
      nullptr;
  InstanceConfig full;
  InstanceConfig reduced;  ///< same generator and seed, small enough for
                           ///< the reference evaluator's nested loops
  int setup_reps = 1;      ///< instance builds per run (setup_s is their median)
  Session::Options options;
};

/// The workloads by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

struct Statement {
  int cls = 0;
  std::string text;
};

/// The seeded statement deck of one run: each class's weight worth of
/// statements with literals drawn from `seed`, shuffled. The measured loop
/// replays the deck whole, so every run executes the same class mix and
/// literal set no matter how many passes fit in its time. The class
/// sequence depends only on the seed and the weights, so the full and
/// reduced decks of one seed line up index by index.
std::vector<Statement> MakeDeck(const WorkloadSpec& w, const InstanceConfig& c,
                                uint64_t seed);

/// A populated database plus the Session that queries it.
struct Instance {
  std::unique_ptr<PaperDb> paper;
  std::unique_ptr<Oo7Db> oo7;
  std::unique_ptr<Session> session;
  double catalog_s = 0.0;   ///< schema/catalog + empty store
  double populate_s = 0.0;  ///< objects, sets and index build
};

Result<std::unique_ptr<Instance>> BuildInstance(const WorkloadSpec& w,
                                                const InstanceConfig& c);

/// What one execution returned, as far as the Session keeps it.
struct Outcome {
  bool ok = false;
  std::string error;
  int64_t rows = 0;
  std::vector<std::vector<Value>> sample;  ///< the first sample_limit rows
  uint64_t digest = 0;  ///< hash of `sample`, order-sensitive if ordered
  double sim_s = 0.0;
};

/// `ordered`: the statement has an ORDER BY, so row order is part of the
/// result.
Outcome ToOutcome(Result<SessionResult> r, bool ordered);
uint64_t RowsDigest(const std::vector<std::vector<Value>>& rows, bool ordered);

/// Checks `got` against the reference evaluator run on `text` over `inst`.
/// Returns an empty string when they agree, else what differed.
std::string CheckAgainstReference(Instance* inst, const ClassSpec& cls,
                                  const std::string& text,
                                  const Outcome& got);

/// Per-statement spans and counters of the traced replica of the default
/// Session path (parse, simplify, fingerprint + cache probe, search,
/// Exchange planting, cache insert, execution). Times in seconds.
struct ReplicaSample {
  double parse_s = 0, simplify_s = 0, fingerprint_s = 0, lookup_s = 0;
  double search_s = 0, plant_s = 0, insert_s = 0, exec_s = 0;
  double exec_cpu_s = 0;  ///< process CPU time during execution
  double wall_s = 0;      ///< first span start to last span end
  int clock_reads = 0;    ///< what the spans cost: steady and CPU clock reads
  int logical_ops = 0;
  bool cache_probed = false, cache_hit = false, inserted = false;
  SearchStats search;  ///< zero unless the statement was searched
  int exchanges = 0, dop = 1;
  bool serial = true;
  double est_cost = 0;  ///< optimizer's anticipated cost of the plan run
  ExecStats exec;
  int64_t batch_hits = 0, batch_misses = 0;  ///< BatchPool counter deltas
  int64_t worker_tasks = 0;                  ///< WorkerPool counter delta
  // From the profiled counting pass:
  int64_t rows_scanned = 0;
  int64_t profiled_rows_out = 0;
  int64_t batches = 0;  ///< batches the plan root emitted
  bool ok = false;
  std::string error;
};

/// Replays the Session's default path for one statement against the
/// session's store and catalog, with its own plan cache (null when the
/// session has none), timing each call from outside the library.
class Replica {
 public:
  explicit Replica(Session* session);
  ReplicaSample Run(const std::string& text);
  const PlanCache* cache() const { return cache_.get(); }

 private:
  Session* session_;
  std::unique_ptr<PlanCache> cache_;
};

// --- Host diagnostics (never used to rescale any number). ---

double NowSeconds();         ///< steady clock
double ProcessCpuSeconds();  ///< all threads
double PeakRssMb();
int64_t InvoluntaryContextSwitches();
double StealMs();  ///< machine-wide steal time from /proc/stat
/// Times a fixed memory-bound pointer chase (same work every call).
double CalibrationMs();

double Median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);

}  // namespace perfbench

#endif  // OODB_PERFBENCH_BENCH_H_
