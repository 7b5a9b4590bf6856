// Output checking: every executed result is compared with the reference
// evaluator (src/exec/reference), never with the engine itself.
#include <algorithm>

#include "perfbench/bench.h"
#include "src/exec/reference.h"

namespace perfbench {

namespace {

std::string RowKey(const std::vector<Value>& row) {
  std::string key;
  for (const Value& v : row) {
    key += v.KeyString();
    key += '\x1f';
  }
  return key;
}

std::vector<std::string> SortedKeys(const std::vector<std::vector<Value>>& rows) {
  std::vector<std::string> keys;
  keys.reserve(rows.size());
  for (const auto& r : rows) keys.push_back(RowKey(r));
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

uint64_t RowsDigest(const std::vector<std::vector<Value>>& rows,
                    bool ordered) {
  uint64_t digest = 0;
  for (const auto& row : rows) {
    uint64_t h = 0x84222325cbf29ce4ull;
    for (const Value& v : row) h = (h ^ v.Hash()) * 0x100000001b3ull;
    h ^= h >> 31;
    // Ordered: position-sensitive fold. Unordered: a sum, independent of
    // the row order an Exchange happens to deliver.
    digest = ordered ? (digest ^ h) * 0x9e3779b97f4a7c15ull : digest + h;
  }
  return digest;
}

Outcome ToOutcome(Result<SessionResult> r, bool ordered) {
  Outcome out;
  if (!r.ok()) {
    out.error = r.status().ToString();
    return out;
  }
  out.ok = true;
  out.rows = r->exec.rows;
  out.sample = std::move(r->exec.sample_rows);
  out.digest = RowsDigest(out.sample, ordered);
  out.sim_s = r->exec.sim_total_s();
  return out;
}

std::string CheckAgainstReference(Instance* inst, const ClassSpec& cls,
                                  const std::string& text,
                                  const Outcome& got) {
  if (!got.ok) return "engine error: " + got.error;
  QueryContext ctx;
  ctx.catalog = &inst->session->catalog();
  SortSpec order;
  int64_t limit = 0;
  Result<LogicalExprPtr> logical = ParseAndSimplify(text, &ctx, &order, &limit);
  if (!logical.ok()) return "parse: " + logical.status().ToString();
  Result<ReferenceResult> ref =
      EvaluateReference(**logical, &inst->session->store(), ctx);
  if (!ref.ok()) return "reference: " + ref.status().ToString();
  std::vector<std::vector<Value>> want = std::move(ref->rows);

  if (!cls.order_cols.empty()) {
    // The keys end in a unique id, so the order is total and the engine's
    // prefix must match exactly.
    std::stable_sort(want.begin(), want.end(),
                     [&](const auto& a, const auto& b) {
                       for (int c : cls.order_cols) {
                         int cmp = a[c].Compare(b[c]);
                         if (cmp != 0) return cmp < 0;
                       }
                       return false;
                     });
    if (limit > 0 && static_cast<int64_t>(want.size()) > limit) {
      want.resize(limit);
    }
  }
  if (static_cast<int64_t>(want.size()) != got.rows) {
    return "rows: engine " + std::to_string(got.rows) + ", reference " +
           std::to_string(want.size());
  }
  if (!cls.order_cols.empty()) {
    for (size_t i = 0; i < got.sample.size(); ++i) {
      if (RowKey(got.sample[i]) != RowKey(want[i])) {
        return "ordered row " + std::to_string(i) + " differs";
      }
    }
    return "";
  }
  // Unordered: the Session keeps the first sample_limit rows, so a larger
  // result is checked as a sub-multiset of the reference.
  std::vector<std::string> have = SortedKeys(got.sample);
  std::vector<std::string> all = SortedKeys(want);
  if (have.size() == all.size()) {
    return have == all ? "" : "row multiset differs";
  }
  return std::includes(all.begin(), all.end(), have.begin(), have.end())
             ? ""
             : "sampled rows not in reference result";
}

}  // namespace perfbench
