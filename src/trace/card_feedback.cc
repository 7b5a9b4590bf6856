#include "src/trace/card_feedback.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/cost/selectivity.h"

namespace oodb {

namespace {

// Ratio clamps: feedback must never produce a zero cardinality (downstream
// costing divides by cards), and a partial profile's "no rows seen yet" is
// reported as half a row rather than a hard zero.
constexpr double kMinSelectivity = 1e-9;
constexpr double kMinFanout = 0.01;

double ClampSel(double sel) {
  return std::clamp(sel, kMinSelectivity, 1.0);
}

}  // namespace

void CardFeedback::RecordScanCard(const CollectionId& id, double card) {
  scan_cards_[CollectionKey(id)] = std::max(card, 0.0);
}

void CardFeedback::RecordSelectivity(size_t conjunct_hash, double sel) {
  selectivities_[conjunct_hash] = ClampSel(sel);
}

void CardFeedback::RecordUnnestFanout(TypeId type, FieldId field,
                                      double fanout) {
  unnest_fanouts_[FieldKey(type, field)] = std::max(fanout, kMinFanout);
}

std::optional<double> CardFeedback::ScanCard(const CollectionId& id) const {
  auto it = scan_cards_.find(CollectionKey(id));
  if (it == scan_cards_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> CardFeedback::Selectivity(size_t conjunct_hash) const {
  auto it = selectivities_.find(conjunct_hash);
  if (it == selectivities_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> CardFeedback::UnnestFanout(TypeId type,
                                                FieldId field) const {
  auto it = unnest_fanouts_.find(FieldKey(type, field));
  if (it == unnest_fanouts_.end()) return std::nullopt;
  return it->second;
}

std::string CardFeedback::Summary() const {
  std::string s = "feedback: ";
  s += std::to_string(scan_cards_.size()) + " scans, ";
  s += std::to_string(selectivities_.size()) + " conjuncts, ";
  s += std::to_string(unnest_fanouts_.size()) + " unnests";
  return s;
}

std::string CardFeedback::CollectionKey(const CollectionId& id) {
  std::string key = id.kind == CollectionId::Kind::kNamedSet ? "s:" : "e:";
  key += id.name;
  key += '#';
  key += std::to_string(id.type);
  return key;
}

namespace {

class Extractor {
 public:
  Extractor(const ExecProfile& profile, const QueryContext& ctx,
            const ObjectStore& store, CardFeedback* out)
      : profile_(profile), ctx_(ctx), store_(store), out_(out) {
    // Exact conjuncts are divided out as the re-plan will price them:
    // against this feedback.
    ctx_.feedback = out;
  }

  /// Post-order, so the scans below a join have recorded their member
  /// counts before its exact conjuncts are priced against them.
  void Visit(const PlanNode& node) {
    for (const PlanNodePtr& c : node.children) Visit(*c);
    switch (node.op.kind) {
      case PhysOpKind::kFileScan:
      case PhysOpKind::kIndexScan:
        RecordScan(node);
        break;
      case PhysOpKind::kFilter:
        RecordFilterChain(node);
        break;
      case PhysOpKind::kAlgUnnest:
        RecordUnnest(node);
        break;
      case PhysOpKind::kHybridHashJoin:
      case PhysOpKind::kMergeJoin:
      case PhysOpKind::kNestedLoops:
        RecordJoin(node);
        break;
      default:
        break;
    }
  }

 private:
  /// Actual rows the node emitted, or -1 when the node has no profile of
  /// its own (a filter absorbed into a fused chain).
  double ActualRows(const PlanNode& node) const {
    const OpProfile* p = profile_.Find(&node);
    return p != nullptr ? static_cast<double>(p->rows) : -1.0;
  }

  /// The store's current member count for a scanned collection, or -1.
  double MemberCount(const CollectionId& id) const {
    Result<const std::vector<Oid>*> members = store_.CollectionMembers(id);
    if (!members.ok()) return -1.0;
    return static_cast<double>((*members)->size());
  }

  /// Splits the combined observed selectivity of `preds` geometrically
  /// across their conjuncts that take feedback: the exactly priced ones'
  /// estimate is divided out, and each other conjunct gets the k-th root of
  /// the rest, so the product — and with it the output cardinality — is
  /// preserved no matter where the re-plan places each conjunct.
  void RecordConjuncts(const std::vector<ScalarExprPtr>& preds, double sel) {
    SelectivityEstimator estimator(&ctx_);
    std::vector<size_t> measured;
    for (const ScalarExprPtr& pred : preds) {
      for (const ScalarExprPtr& c : ScalarExpr::SplitConjuncts(pred)) {
        if (!SelectivityEstimator::IsExact(c)) {
          measured.push_back(c->Hash());
        } else if (double exact = estimator.Estimate(c); exact > 0.0) {
          sel /= exact;
        }
      }
    }
    if (measured.empty()) return;
    double per =
        std::pow(ClampSel(sel), 1.0 / static_cast<double>(measured.size()));
    for (size_t hash : measured) out_->RecordSelectivity(hash, per);
  }

  void RecordScan(const PlanNode& node) {
    double members = MemberCount(node.op.coll);
    if (members >= 0.0) out_->RecordScanCard(node.op.coll, members);
    // An index scan's output already reflects its key predicate (and any
    // residual): actual-out over the population is the combined selectivity.
    if (node.op.kind != PhysOpKind::kIndexScan) return;
    double out_rows = ActualRows(node);
    if (members <= 0.0 || out_rows < 0.0) return;
    RecordConjuncts({node.op.index_pred, node.op.pred},
                    std::max(out_rows, 0.5) / members);
  }

  void RecordFilterChain(const PlanNode& node) {
    // Only chain tops have a profile; absorbed inner filters are handled
    // from their top when the chain was collapsed at exec-build time.
    double out_rows = ActualRows(node);
    if (out_rows < 0.0 || node.op.pred == nullptr) return;
    std::vector<ScalarExprPtr> preds;
    const PlanNode* base = &node;
    while (base->op.kind == PhysOpKind::kFilter && base->op.pred != nullptr) {
      preds.push_back(base->op.pred);
      base = base->children[0].get();
    }
    double in_rows = ActualRows(*base);
    if (in_rows < 0.0 && base->op.kind == PhysOpKind::kFileScan) {
      // Scan-fused chain: the scan below has no profile of its own, but its
      // input is by definition the whole collection — ask the store.
      in_rows = MemberCount(base->op.coll);
    }
    if (in_rows <= 0.0) return;
    RecordConjuncts(preds, std::max(out_rows, 0.5) / in_rows);
  }

  void RecordUnnest(const PlanNode& node) {
    double out_rows = ActualRows(node);
    double in_rows = ActualRows(*node.children[0]);
    if (out_rows <= 0.0 || in_rows <= 0.0) return;
    TypeId src_type = ctx_.bindings.def(node.op.source).type;
    out_->RecordUnnestFanout(src_type, node.op.field, out_rows / in_rows);
  }

  void RecordJoin(const PlanNode& node) {
    if (node.op.pred == nullptr) return;
    double out_rows = ActualRows(node);
    double left = ActualRows(*node.children[0]);
    double right = ActualRows(*node.children[1]);
    // Both inputs must have produced rows: after a build-side drift abort
    // the probe side never opened, and a 0-row input says nothing about the
    // predicate.
    if (out_rows < 0.0 || left <= 0.0 || right <= 0.0) return;
    RecordConjuncts({node.op.pred}, std::max(out_rows, 0.5) / (left * right));
  }

  const ExecProfile& profile_;
  QueryContext ctx_;
  const ObjectStore& store_;
  CardFeedback* out_;
};

}  // namespace

CardFeedback ExtractCardFeedback(const PlanNode& plan,
                                 const ExecProfile& profile,
                                 const QueryContext& ctx,
                                 const ObjectStore& store) {
  CardFeedback out;
  Extractor(profile, ctx, store, &out).Visit(plan);
  return out;
}

}  // namespace oodb
