// Incremental exploration. A child-matching transformation rule re-fires on
// an m-expr whenever a child group grows; its watermark on that m-expr
// records which child m-exprs it has already bound, so a re-firing binds
// only the ones it has not seen and still inserts exactly what binding
// every child m-expr again would.
#ifndef OODB_VOLCANO_WATERMARK_H_
#define OODB_VOLCANO_WATERMARK_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/volcano/memo.h"

namespace oodb {

/// Outputs [begin, end) of a transformation-rule firing came from binding
/// the m-expr at `position` of the child group at `slot`.
struct BindingOutputs {
  int slot = 0;
  int32_t position = 0;
  size_t begin = 0;
  size_t end = 0;
};

/// Per child slot, the position in the child group's m-expr list where a
/// firing starts binding.
using ChildStarts = std::array<int32_t, kMaxLogicalArity>;

/// What one child-matching rule has bound on one m-expr.
///
/// A binding had at an earlier firing yields the same outputs now, up to
/// the ids of the groups they name (rule conditions read only group scopes,
/// which merges preserve). While none of those groups has been merged away,
/// each output's index keys are unchanged, so inserting it again finds it
/// and changes nothing, as long as nothing the firing inserts comes first.
/// Rules bind slot by slot, so that holds in the first slot up to its first
/// binding whose outputs name a merged-away group, and in a later slot only
/// if every earlier slot binds nothing this time: otherwise their outputs
/// come first and may merge groups.
class Watermark {
 public:
  /// Before the rule fires on `m`: where the firing starts in each child
  /// slot. Advances the watermark to the child groups' current sizes.
  ChildStarts Start(const Memo& memo, const LogicalMExpr& m);

  /// After the firing inserted its outputs: `bound` attributes them to
  /// bindings, and `named[named_end[k - 1], named_end[k])` are the groups
  /// output k named (Memo::InsertRuleExpr's `named`). Fails if an output
  /// came from no binding.
  Status Finish(const std::vector<BindingOutputs>& bound,
                const std::vector<GroupId>& named,
                const std::vector<size_t>& named_end);

 private:
  /// A child slot's canonical group and how many m-exprs it had.
  struct ChildMark {
    GroupId group = kInvalidGroup;
    int32_t seen = 0;
  };
  /// A group the outputs of bindings below the marks name, with the
  /// earliest of those bindings.
  struct Named {
    GroupId group = kInvalidGroup;
    int32_t slot = 0;
    int32_t position = 0;
  };

  /// Memo::merge_epoch() at the last Start: with no merge since, nothing
  /// named can have been merged away.
  uint64_t merge_epoch_ = 0;
  std::array<ChildMark, kMaxLogicalArity> slots_;
  /// One entry per (slot, group), sorted by them.
  std::vector<Named> named_;
};

}  // namespace oodb

#endif  // OODB_VOLCANO_WATERMARK_H_
