// Cost ADT and cost-model constants (paper §3 "Cost Model"): CPU and I/O
// costs, with sequential I/O charged less than random I/O and assembly's
// I/O discounted because its elevator pattern minimizes seek distances.
// All constants live in one options struct so that tuning a formula is "a
// very localized change", as the paper puts it.
#ifndef OODB_COST_COST_MODEL_H_
#define OODB_COST_COST_MODEL_H_

#include <cstdint>
#include <string>

#include "src/catalog/catalog.h"

namespace oodb {

/// Tunable constants of the cost model. Defaults are calibrated so that the
/// paper's plan-choice crossovers are preserved (EXPERIMENTS.md records the
/// resulting estimates next to the paper's numbers).
struct CostModelOptions {
  int64_t page_size = 4096;

  // --- I/O ---
  double random_io_s = 0.020;  ///< one random page fault
  double seq_io_s = 0.004;     ///< one page of a sequential scan

  // --- CPU (1993-workstation scale: ~25 MHz, interpreted predicate
  // evaluation and function-call-heavy tuple handling) ---
  double cpu_scan_tuple_s = 5.0e-4; ///< produce one tuple from a scan
  double cpu_pred_s = 5.0e-4;       ///< evaluate one predicate on one tuple
  double cpu_hash_build_s = 1.5e-3; ///< insert one tuple into a hash table
  double cpu_hash_probe_s = 1.5e-3; ///< probe one tuple
  double cpu_unnest_s = 2.0e-4;     ///< per produced set element
  double cpu_copy_byte_s = 4.0e-8;  ///< copy/construct output bytes
  double cpu_deref_s = 2.0e-4;      ///< swizzle/resolve one reference

  // --- Index scans ---
  double index_probe_s = 0.040;  ///< B-tree descent (a couple of random I/Os)
  double index_leaf_s = 2.0e-4;  ///< per matching leaf entry

  // --- Assembly ---
  /// Large-window seek-cost discount factor: with an unbounded window the
  /// elevator pattern reduces a fault to this fraction of a random I/O.
  double assembly_window_discount_floor = 0.55;
  /// Default open-reference window size (paper's w/o-window ablation sets 1).
  int assembly_window = 32;

  /// Memory available to hash tables; hybrid hash join spills beyond this.
  double memory_bytes = 8.0 * 1024 * 1024;

  // --- Batch execution and Exchange (Volcano-style parallelism) ---
  /// Rows per execution batch (the exec_batch_size knob). Operators amortize
  /// per-call dispatch, clock updates, and governor checkpoints over this
  /// many rows.
  int exec_batch_size = 1024;
  /// Per-batch overhead of one operator Next() call (virtual dispatch plus
  /// batch bookkeeping); divided by exec_batch_size it yields the per-tuple
  /// iteration overhead the batch refactor amortizes away.
  double cpu_batch_overhead_s = 2.0e-4;
  /// Spawning/joining one Exchange worker thread (plan startup term).
  double exchange_startup_s = 2.0e-3;
  /// Moving one tuple through an Exchange cross-thread batch queue.
  double exchange_flow_tuple_s = 1.0e-5;
};

/// A query-plan cost: I/O seconds + CPU seconds. Compared by total.
struct Cost {
  double io_s = 0.0;
  double cpu_s = 0.0;

  double total() const { return io_s + cpu_s; }

  Cost operator+(const Cost& o) const { return {io_s + o.io_s, cpu_s + o.cpu_s}; }
  Cost& operator+=(const Cost& o) {
    io_s += o.io_s;
    cpu_s += o.cpu_s;
    return *this;
  }
  bool operator<(const Cost& o) const { return total() < o.total(); }

  static Cost Io(double s) { return {s, 0.0}; }
  static Cost Cpu(double s) { return {0.0, s}; }
  static Cost Infinite();

  std::string ToString() const;
};

/// Cost-formula helpers shared by the algorithm cost functions.
class CostModel {
 public:
  explicit CostModel(CostModelOptions opts = {}) : opts_(opts) {}

  const CostModelOptions& opts() const { return opts_; }
  CostModelOptions& mutable_opts() { return opts_; }

  /// Pages occupied by `card` objects of `type`, densely packed.
  double PagesFor(const Catalog& catalog, TypeId type, double card) const;

  /// Sequentially scanning `pages` pages.
  Cost SeqRead(double pages) const { return Cost::Io(pages * opts_.seq_io_s); }

  /// `faults` random page faults.
  Cost RandomRead(double faults) const {
    return Cost::Io(faults * opts_.random_io_s);
  }

  /// Seek-discount factor for an assembly window of `window` open
  /// references: 1.0 at window 1 (degenerates to naive pointer lookups),
  /// approaching the floor as the window grows (elevator pattern).
  double AssemblyDiscount(int window) const;

  /// I/O cost of assembling `n_refs` references to objects of `type`. When
  /// the catalog knows the type's population (an extent exists), the number
  /// of faults is bounded by the extent's pages (every page is read at most
  /// once under the elevator pattern); otherwise every reference may fault —
  /// the paper's Plant situation.
  Cost AssemblyIo(const Catalog& catalog, TypeId type, double n_refs,
                  int window) const;

  /// CPU cost of building and probing a hash table.
  Cost HashJoinCpu(double build_tuples, double probe_tuples) const;

  /// I/O overflow cost of hybrid hash join when the build side exceeds
  /// memory: spilled fraction is written and re-read sequentially.
  Cost HashJoinOverflowIo(double build_bytes, double probe_bytes) const;

 private:
  CostModelOptions opts_;
};

}  // namespace oodb

#endif  // OODB_COST_COST_MODEL_H_
