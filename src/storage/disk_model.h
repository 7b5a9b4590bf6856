// Simulated disk: tracks page reads, classifies them as sequential or
// random by arm position, and accumulates simulated elapsed time using the
// same timing constants as the optimizer's cost model — so optimizer
// estimates can be validated against "measured" execution behaviour.
#ifndef OODB_STORAGE_DISK_MODEL_H_
#define OODB_STORAGE_DISK_MODEL_H_

#include <cstdint>

#include "src/cost/cost_model.h"

namespace oodb {

using PageId = int64_t;
inline constexpr PageId kInvalidPage = -1;

/// Accumulates simulated I/O and CPU time during execution.
struct SimClock {
  double io_s = 0.0;
  double cpu_s = 0.0;

  double total() const { return io_s + cpu_s; }
  void Reset() { io_s = cpu_s = 0.0; }
  void MergeFrom(const SimClock& o) {
    io_s += o.io_s;
    cpu_s += o.cpu_s;
  }
};

/// One pipeline's accounting stream: its simulated clock, its disk arm and
/// its read counters. The serial drain charges the store's stream; each
/// Exchange worker charges a fresh one that the Exchange merges into its
/// consumer's after the join, so every stream is written by one thread at a
/// time and needs no lock or atomic.
///
/// The disk-arm model: a read of page p is *sequential* if p immediately
/// follows the stream's previous read (or re-reads it), otherwise *random*.
/// Assembly's elevator pattern benefits automatically: refs sorted by page
/// produce short forward seeks which are charged an interpolated cost.
struct SimStream {
  SimClock clock;
  PageId arm = kInvalidPage;  ///< the last page this stream read
  int64_t seq_reads = 0;
  int64_t random_reads = 0;
  int64_t buffer_hits = 0;
  /// Reads already charged to the query governor's page budget.
  int64_t governed_reads = 0;

  /// Physical reads (every one a buffer-pool miss).
  int64_t reads() const { return seq_reads + random_reads; }

  /// Classifies a physical read of `page` on this stream's arm and charges
  /// its simulated time.
  void Read(PageId page, const CostModelOptions& timing);

  /// Adds a joined worker's clock and counters; the arm stays where this
  /// stream left it.
  void MergeFrom(const SimStream& o) {
    clock.MergeFrom(o.clock);
    seq_reads += o.seq_reads;
    random_reads += o.random_reads;
    buffer_hits += o.buffer_hits;
    governed_reads += o.governed_reads;
  }
};

}  // namespace oodb

#endif  // OODB_STORAGE_DISK_MODEL_H_
