// Host diagnostics and small statistics helpers. The diagnostics make a
// noisy run identifiable (steal, preemption, a slow memory system); no
// benchmark number is ever rescaled by them.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include "perfbench/bench.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int64_t InvoluntaryContextSwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nivcsw;
}

double StealMs() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::istringstream fields(line);
  std::string label;
  fields >> label;
  int64_t v = 0, steal = 0;
  for (int i = 0; i < 8 && (fields >> v); ++i) {
    if (i == 7) steal = v;
  }
  return static_cast<double>(steal) * 1000.0 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double CalibrationMs() {
  // A single-cycle random permutation over 16 MiB: every step is a
  // dependent load that misses the caches, so the time tracks the memory
  // system and the CPU share this process gets.
  constexpr size_t kSlots = size_t{1} << 21;
  constexpr size_t kSteps = size_t{1} << 19;
  std::vector<uint64_t> next(kSlots);
  std::vector<uint64_t> order(kSlots);
  for (size_t i = 0; i < kSlots; ++i) order[i] = i;
  Rng rng(12345);
  for (size_t i = kSlots - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  for (size_t i = 0; i < kSlots; ++i) {
    next[order[i]] = order[(i + 1) % kSlots];
  }
  double t0 = NowSeconds();
  uint64_t at = 0;
  for (size_t i = 0; i < kSteps; ++i) at = next[at];
  double ms = (NowSeconds() - t0) * 1000.0;
  // Keep the chase observable so it cannot be optimized away.
  if (at == kSlots) std::abort();
  return ms;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

}  // namespace perfbench
