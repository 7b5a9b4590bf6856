#include "src/trace/exec_profile.h"

#include <algorithm>
#include <sstream>

#include "src/common/strings.h"

namespace oodb {

void OpProfile::MergeFrom(const OpProfile& other) {
  rows += other.rows;
  phys_rows += other.phys_rows;
  batches += other.batches;
  cpu_s += other.cpu_s;
  io_s += other.io_s;
  pages_read += other.pages_read;
  buffer_hits += other.buffer_hits;
  // Worker-private TopK heaps are the same bounded size; max, not sum.
  topk_heap = std::max(topk_heap, other.topk_heap);
  sort_runs += other.sort_runs;
  merge_streams += other.merge_streams;
  merge_runs += other.merge_runs;
  merge_encoded += other.merge_encoded;
}

OpProfile* ExecProfile::Register(const PlanNode* node) {
  return &ops_[node];
}

const OpProfile* ExecProfile::Find(const PlanNode* node) const {
  auto it = ops_.find(node);
  return it == ops_.end() ? nullptr : &it->second;
}

void ExecProfile::MergeFrom(const ExecProfile& other) {
  for (const auto& [node, prof] : other.ops_) ops_[node].MergeFrom(prof);
  for (const auto& [node, ws] : other.workers_) {
    std::vector<WorkerUtilization>& mine = workers_[node];
    mine.insert(mine.end(), ws.begin(), ws.end());
  }
}

void ExecProfile::AddWorker(const PlanNode* exchange, WorkerUtilization u) {
  workers_[exchange].push_back(u);
}

const std::vector<WorkerUtilization>* ExecProfile::workers(
    const PlanNode* exchange) const {
  auto it = workers_.find(exchange);
  return it == workers_.end() ? nullptr : &it->second;
}

double DriftRatio(double estimated, int64_t actual) {
  double e = std::max(estimated, 1.0);
  double a = std::max(static_cast<double>(actual), 1.0);
  return std::max(e, a) / std::min(e, a);
}

double MaxDriftRatio(const PlanNode& plan, const ExecProfile& profile) {
  double worst = 1.0;
  if (const OpProfile* p = profile.Find(&plan)) {
    worst = DriftRatio(plan.logical.card, p->rows);
  }
  for (const PlanNodePtr& c : plan.children) {
    worst = std::max(worst, MaxDriftRatio(*c, profile));
  }
  return worst;
}

namespace {

void RenderRec(const PlanNode& node, const QueryContext& ctx,
               const ExecProfile& profile, int depth, std::ostringstream& os) {
  os << Repeat("    ", depth) << node.op.ToString(ctx) << "   [est "
     << FormatDouble(node.logical.card, 1);
  const OpProfile* p = profile.Find(&node);
  if (p == nullptr) {
    os << " (fused)]";
  } else {
    double drift = DriftRatio(node.logical.card, p->rows);
    const char* dir = node.logical.card > static_cast<double>(p->rows)
                          ? "over"
                          : node.logical.card < static_cast<double>(p->rows)
                                ? "under"
                                : "exact";
    os << " -> act " << p->rows << " rows (drift " << FormatDouble(drift, 2)
       << "x " << dir << ")";
    // Selection density: live rows over physical batch rows. Only shown
    // when a selection vector actually thinned the stream.
    if (p->phys_rows > p->rows) {
      os << ", sel "
         << FormatDouble(100.0 * static_cast<double>(p->rows) /
                             static_cast<double>(p->phys_rows),
                         1)
         << "%";
    }
    os << ", batches " << p->batches << ", cpu "
       << FormatDouble(p->cpu_s, 6) << "s";
    // Order-property counters, present only where they mean something:
    // heap occupancy on TopK, flushed runs on a partial Sort, interleaved
    // streams, block copies and self-encoded batches on a merging Exchange.
    if (p->topk_heap > 0) os << ", heap " << p->topk_heap;
    if (p->sort_runs > 0) os << ", runs " << p->sort_runs;
    if (p->merge_streams > 0) {
      os << ", merge " << p->merge_streams << ", runs " << p->merge_runs
         << ", encoded " << p->merge_encoded;
    }
    os << ", io " << FormatDouble(p->io_s, 6) << "s, pages " << p->pages_read
       << ", buf " << p->buffer_hits << "h/" << p->pages_read << "m]";
  }
  os << "\n";
  if (const std::vector<WorkerUtilization>* ws = profile.workers(&node)) {
    double total_cpu = 0.0;
    for (const WorkerUtilization& w : *ws) total_cpu += w.cpu_s;
    for (const WorkerUtilization& w : *ws) {
      double share = total_cpu > 0.0 ? 100.0 * w.cpu_s / total_cpu : 0.0;
      os << Repeat("    ", depth) << "  worker " << w.worker << ": rows "
         << w.rows << ", cpu " << FormatDouble(w.cpu_s, 6) << "s ("
         << FormatDouble(share, 1) << "%)\n";
    }
  }
  for (const PlanNodePtr& c : node.children) {
    RenderRec(*c, ctx, profile, depth + 1, os);
  }
}

}  // namespace

std::string RenderAnalyzedPlan(const PlanNode& plan, const QueryContext& ctx,
                               const ExecProfile& profile) {
  std::ostringstream os;
  RenderRec(plan, ctx, profile, 0, os);
  return os.str();
}

}  // namespace oodb
