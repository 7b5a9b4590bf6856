#include "src/exec/exec_fault.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <limits>
#include <system_error>
#include <thread>

#include "src/common/metrics.h"

namespace oodb {

namespace {

/// Process-wide injected-fault counter (per-execution counts live on the
/// injector). Resolved once; never freed.
Counter* InjectedCounter() {
  static Counter* c = MetricsRegistry::Global().counter(
      "oodb_exec_faults_injected_total",
      "Exec-layer faults fired by the injector (worker kills).");
  return c;
}

/// Parses all of `val` as a T (integers in decimal, so a uint64 seed stays
/// exact) into `out`, rejecting text that is not a number of T's kind and
/// values outside [lo, hi]. `kv` names the entry in the error.
template <typename T>
Status ParseNumber(const std::string& kv, const std::string& val, T lo, T hi,
                   T* out) {
  const char* last = val.data() + val.size();
  T v{};
  auto [end, ec] = std::from_chars(val.data(), last, v);
  if (ec != std::errc() || end != last) {
    return Status::InvalidArgument("exec fault spec value not a number: " +
                                   kv);
  }
  // Written so NaN fails too.
  if (!(v >= lo && v <= hi)) {
    return Status::InvalidArgument("exec fault spec value out of range: " +
                                   kv);
  }
  *out = v;
  return Status::OK();
}

}  // namespace

Result<ExecFaultPolicy> ParseExecFaultSpec(const std::string& spec) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
  // fail_probability lives in [0, 1): the largest double below 1 closes it.
  const double kBelowOne = std::nextafter(1.0, 0.0);
  ExecFaultPolicy policy;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    std::string kv = spec.substr(pos, end - pos);
    pos = end + 1;
    if (kv.empty()) continue;
    size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("exec fault spec entry without '=': " +
                                     kv);
    }
    std::string key = kv.substr(0, eq);
    std::string val = kv.substr(eq + 1);
    Status st;
    if (key == "seed") {
      st = ParseNumber(kv, val, uint64_t{0},
                       std::numeric_limits<uint64_t>::max(), &policy.seed);
    } else if (key == "fail_worker") {
      st = ParseNumber(kv, val, -1, kIntMax, &policy.fail_worker);
    } else if (key == "fail_after_batches") {
      st = ParseNumber(kv, val, int64_t{1}, kInt64Max,
                       &policy.fail_after_batches);
    } else if (key == "fail_probability") {
      st = ParseNumber(kv, val, 0.0, kBelowOne, &policy.fail_probability);
    } else if (key == "fail_attempts") {
      st = ParseNumber(kv, val, 0, kIntMax, &policy.fail_attempts);
    } else if (key == "slow_worker") {
      st = ParseNumber(kv, val, -1, kIntMax, &policy.slow_worker);
    } else if (key == "slow_ms") {
      st = ParseNumber(kv, val, 0.0, kMaxFaultSleepMs, &policy.slow_ms);
    } else if (key == "slow_sim_s") {
      st = ParseNumber(kv, val, 0.0, std::numeric_limits<double>::max(),
                       &policy.slow_sim_s);
    } else if (key == "stall_pushes") {
      st = ParseNumber(kv, val, int64_t{0}, kInt64Max, &policy.stall_pushes);
    } else if (key == "stall_ms") {
      st = ParseNumber(kv, val, 0.0, kMaxFaultSleepMs, &policy.stall_ms);
    } else {
      return Status::InvalidArgument("unknown exec fault spec key: " + key);
    }
    OODB_RETURN_IF_ERROR(st);
  }
  return policy;
}

ExecFaultInjector::WorkerState& ExecFaultInjector::StateLocked(int worker,
                                                               int attempt) {
  WorkerState& s = workers_[{worker, attempt}];
  if (!s.rng_seeded) {
    // Per-site stream: deterministic regardless of thread interleaving.
    s.rng = Rng(policy_.seed ^
                (0xfa017ull +
                 static_cast<uint64_t>(worker) * 0x9e3779b97f4a7c15ull +
                 static_cast<uint64_t>(attempt) * 0xc2b2ae3d27d4eb4full));
    s.rng_seeded = true;
  }
  return s;
}

Status ExecFaultInjector::Action::Apply(SimStream* stream) const {
  stream->clock.cpu_s += sim_delay_s;
  if (sleep_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms));
  }
  return status;
}

void ExecFaultInjector::CountInjected() {
  injected_.fetch_add(1, std::memory_order_relaxed);
  InjectedCounter()->Increment();
}

ExecFaultInjector::Action ExecFaultInjector::OnBatchBoundary(int worker,
                                                             int attempt) {
  Action act;
  if (!policy_.enabled()) return act;
  MutexLock lock(mu_);
  WorkerState& s = StateLocked(worker, attempt);
  ++s.batches;
  if (policy_.slow_worker == worker) {
    act.sleep_ms += policy_.slow_ms;
    act.sim_delay_s += policy_.slow_sim_s;
  }
  // Equality (not >=) fires the deterministic kill exactly once per fault
  // site (worker, attempt): each re-execution restarts its batch counter,
  // so every armed attempt dies at the same batch ordinal.
  if (policy_.fail_worker == worker && attempt < policy_.fail_attempts &&
      s.batches == policy_.fail_after_batches) {
    act.status = Status::WorkerFault(
        "injected worker fault (worker " + std::to_string(worker) +
        ", batch #" + std::to_string(s.batches) + ", attempt " +
        std::to_string(attempt) + ")");
    CountInjected();
  }
  return act;
}

Status ExecFaultInjector::OnTick(int worker, int attempt) {
  if (policy_.fail_probability <= 0.0) return Status::OK();
  MutexLock lock(mu_);
  WorkerState& s = StateLocked(worker, attempt);
  ++s.ticks;
  if (attempt < policy_.fail_attempts &&
      s.rng.Bernoulli(policy_.fail_probability)) {
    CountInjected();
    return Status::WorkerFault(
        "injected worker fault (worker " + std::to_string(worker) +
        ", tick #" + std::to_string(s.ticks) + ", attempt " +
        std::to_string(attempt) + ", probabilistic policy)");
  }
  return Status::OK();
}

ExecFaultInjector::Action ExecFaultInjector::OnPush(int worker, int attempt) {
  Action act;
  (void)worker;
  (void)attempt;
  if (policy_.stall_pushes <= 0) return act;
  MutexLock lock(mu_);
  if (pushes_ < policy_.stall_pushes) {
    ++pushes_;
    act.sleep_ms = policy_.stall_ms;
  }
  return act;
}

}  // namespace oodb
