#include "src/storage/disk_model.h"

#include <algorithm>
#include <cmath>

namespace oodb {

void SimStream::Read(PageId page, const CostModelOptions& timing) {
  bool sequential =
      arm != kInvalidPage && (page == arm || page == arm + 1);
  if (sequential) {
    ++seq_reads;
    clock.io_s += timing.seq_io_s;
  } else {
    ++random_reads;
    // Short forward seeks (the elevator pattern) cost less than full random
    // repositioning: interpolate between sequential and random cost on a
    // log scale of the seek distance.
    double cost = timing.random_io_s;
    if (arm != kInvalidPage && page > arm) {
      double distance = static_cast<double>(page - arm);
      double t = std::min(1.0, std::log2(distance + 1.0) / 16.0);
      cost = timing.seq_io_s + t * (timing.random_io_s - timing.seq_io_s);
    }
    clock.io_s += cost;
  }
  arm = page;
}

}  // namespace oodb
