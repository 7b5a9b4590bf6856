#include "src/volcano/watermark.h"

#include <algorithm>
#include <limits>
#include <tuple>

namespace oodb {

ChildStarts Watermark::Start(const Memo& memo, const LogicalMExpr& m) {
  // Per slot, the first binding whose outputs name a merged-away group.
  ChildStarts stale;
  stale.fill(std::numeric_limits<int32_t>::max());
  if (merge_epoch_ != memo.merge_epoch()) {
    for (const Named& n : named_) {
      if (memo.Find(n.group) != n.group) {
        stale[n.slot] = std::min(stale[n.slot], n.position);
      }
    }
  }
  ChildStarts from = {};
  bool skip = true;
  for (size_t i = 0; i < m.children.size(); ++i) {
    GroupId g = memo.Find(m.children[i]);
    int32_t size = static_cast<int32_t>(memo.group(g).mexprs.size());
    // A first firing finds no group recorded and starts from the top, and
    // so does a slot whose group was merged away (its m-exprs moved).
    if (skip && slots_[i].group == g) {
      from[i] = std::min(slots_[i].seen, stale[i]);
    }
    skip = skip && from[i] == size;
    slots_[i] = ChildMark{g, size};
  }
  // Bindings from `from` on are bound again and record their names anew.
  std::erase_if(named_,
                [&](const Named& n) { return n.position >= from[n.slot]; });
  merge_epoch_ = memo.merge_epoch();
  return from;
}

Status Watermark::Finish(const std::vector<BindingOutputs>& bound,
                         const std::vector<GroupId>& named,
                         const std::vector<size_t>& named_end) {
  auto key_less = [](const Named& a, const Named& b) {
    return std::tie(a.slot, a.group) < std::tie(b.slot, b.group);
  };
  size_t covered = 0;
  for (const BindingOutputs& b : bound) {
    if (b.begin != covered || b.end > named_end.size()) break;
    size_t first = b.begin == 0 ? 0 : named_end[b.begin - 1];
    for (size_t i = first; i < named_end[b.end - 1]; ++i) {
      // Bindings come in slot order, and recorded ones precede this
      // firing's: the first entry for a (slot, group) is the earliest.
      Named n{named[i], b.slot, b.position};
      auto it = std::lower_bound(named_.begin(), named_.end(), n, key_less);
      if (it == named_.end() || key_less(n, *it)) named_.insert(it, n);
    }
    covered = b.end;
  }
  if (covered != named_end.size()) {
    return Status::Internal(
        "child-matching rule emitted an output outside ChildMExprs");
  }
  return Status::OK();
}

}  // namespace oodb
