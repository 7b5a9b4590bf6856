#include "src/cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/strings.h"

namespace oodb {

Cost Cost::Infinite() {
  return {std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::infinity()};
}

std::string Cost::ToString() const {
  return FormatDouble(total(), 3) + "s (io " + FormatDouble(io_s, 3) +
         "s, cpu " + FormatDouble(cpu_s, 3) + "s)";
}

double CostModel::PagesFor(const Catalog& catalog, TypeId type,
                           double card) const {
  int64_t obj = catalog.schema().type(type).object_size();
  // Whole objects per page (objects do not span pages), matching
  // Catalog::PagesFor.
  double per_page = std::max<int64_t>(1, opts_.page_size / std::max<int64_t>(1, obj));
  return std::ceil(card / per_page);
}

double CostModel::AssemblyDiscount(int window) const {
  if (window <= 1) return 1.0;
  // Interpolate from 1.0 toward the floor on a log scale; by window ~32 the
  // elevator pattern has realized nearly all of its seek savings.
  double floor = opts_.assembly_window_discount_floor;
  double t = std::min(1.0, std::log2(static_cast<double>(window)) / 5.0);
  return 1.0 - t * (1.0 - floor);
}

Cost CostModel::AssemblyIo(const Catalog& catalog, TypeId type, double n_refs,
                           int window) const {
  double faults = n_refs;
  if (std::optional<int64_t> population = catalog.TypeCardinality(type)) {
    // With a known population (an extent exists) the optimizer "can place
    // an upper bound on the number of I/O operations needed" (paper §4): at
    // most one fault per distinct referenced object.
    faults = std::min(faults, static_cast<double>(*population));
  }
  // The window discount models the elevator pattern over physical disk
  // locations; a window of 1 assembles one object at a time and "becomes
  // similar to the lookup component of an unclustered index scan".
  return RandomRead(faults * AssemblyDiscount(window));
}

Cost CostModel::HashJoinCpu(double build_tuples, double probe_tuples) const {
  return Cost::Cpu(build_tuples * opts_.cpu_hash_build_s +
                   probe_tuples * opts_.cpu_hash_probe_s);
}

Cost CostModel::HashJoinOverflowIo(double build_bytes,
                                   double probe_bytes) const {
  if (build_bytes <= opts_.memory_bytes) return {};
  double spill_fraction = 1.0 - opts_.memory_bytes / build_bytes;
  double spilled_pages =
      spill_fraction * (build_bytes + probe_bytes) / opts_.page_size;
  // Written once and re-read once, sequentially.
  return SeqRead(2.0 * spilled_pages);
}

}  // namespace oodb
