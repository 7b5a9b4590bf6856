// Optimizer search trace: a bounded ring buffer of structured events
// recording what the Volcano search did — which rules fired, which groups
// were costed under which cost limits, when a cheaper plan displaced the
// running winner, where branch-and-bound cut a branch, where an enforcer
// was inserted, and what the static verifier concluded. Attach an OptTrace
// via OptimizerOptions::trace_sink; the null default costs nothing (a
// single pointer test per would-be event) and leaves plans bit-identical.
//
// The buffer keeps the newest `capacity` events (oldest are overwritten;
// `dropped()` counts the loss) while per-kind counters cover the whole
// search, so a test can assert "N branches pruned" even after overflow.
// Dump with ToText() for humans or ToJson() for tooling.
//
// Thread-compatibility: one optimization writes from one thread; attach a
// distinct OptTrace per concurrent optimization.
#ifndef OODB_TRACE_OPT_TRACE_H_
#define OODB_TRACE_OPT_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace oodb {

enum class OptEventKind : uint8_t {
  kRuleFired,        ///< transformation produced a new memo expression
  kGroupExplored,    ///< a costing goal was entered (its cost limit, if any)
  kWinnerReplaced,   ///< a cheaper plan displaced the group's running best
  kBranchPruned,     ///< branch-and-bound cut an alternative over the bound
  kEnforcerInserted, ///< an enforcer operator joined the costed candidates
  kVerifyOutcome,    ///< static verifier verdict on the winning plan
};
inline constexpr int kNumOptEventKinds = 6;

const char* OptEventKindName(OptEventKind kind);

struct OptEvent {
  OptEventKind kind = OptEventKind::kRuleFired;
  /// Rule/enforcer name ("" when not applicable). A borrowed pointer, not a
  /// copy: rule names are static-lifetime strings, and rule firings are the
  /// hot path — recording one must not allocate.
  const char* rule = "";
  int group = -1;     ///< memo group id (-1 when not applicable)
  int mexpr = -1;     ///< memo m-expr id (-1 when not applicable)
  double cost = -1.0; ///< plan cost at the event (-1 when not applicable)
  /// Physical operator kind name ("" when not applicable); borrowed like
  /// `rule` so hot-path events (winner replacements) never allocate.
  const char* op = "";
  std::string detail; ///< properties / diagnostic text (cold paths only)
};

class OptTrace {
 public:
  static constexpr size_t kDefaultCapacity = 4096;
  explicit OptTrace(size_t capacity = kDefaultCapacity);

  void Record(OptEvent&& event);

  /// Total events recorded (including overwritten ones).
  int64_t recorded() const { return recorded_; }
  /// Events lost to ring overwrite.
  int64_t dropped() const {
    return recorded_ - static_cast<int64_t>(size_);
  }
  /// Whole-search tally per kind (survives ring overflow).
  int64_t count(OptEventKind kind) const {
    return counts_[static_cast<size_t>(kind)];
  }

  /// Retained events, oldest first.
  std::vector<OptEvent> Events() const;

  /// Compact one-line-per-event dump:
  ///   rule-fired      mat-to-join g3 #12 Join(...)
  std::string ToText() const;
  /// JSON: {"recorded":N,"dropped":N,"counts":{...},"events":[{...},...]}
  std::string ToJson() const;

  void Clear();

 private:
  size_t capacity_;
  std::vector<OptEvent> ring_;
  size_t next_ = 0;  ///< slot the next event lands in (once size_ == capacity_)
  size_t size_ = 0;
  int64_t recorded_ = 0;
  int64_t counts_[kNumOptEventKinds] = {};
};

}  // namespace oodb

#endif  // OODB_TRACE_OPT_TRACE_H_
