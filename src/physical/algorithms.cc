#include "src/physical/algorithms.h"

#include <algorithm>
#include <cmath>

namespace oodb {

Cost FileScanCost(const CostModel& cm, const Catalog& catalog,
                  const CollectionInfo& coll) {
  double card = static_cast<double>(coll.cardinality);
  double pages = cm.PagesFor(catalog, coll.id.type, card);
  Cost c = cm.SeqRead(pages);
  c += Cost::Cpu(card * cm.opts().cpu_scan_tuple_s);
  return c;
}

double ConjunctEvaluations(const std::vector<double>& sels) {
  double evals = 0.0;
  double reach = 1.0;
  for (double s : sels) {
    evals += reach;
    reach *= s;
  }
  return evals;
}

Cost IndexScanCost(const CostModel& cm, double matches, bool clustered,
                   double residual_evals, const Catalog& catalog,
                   TypeId root_type) {
  Cost c = Cost::Cpu(cm.opts().index_probe_s);
  c += Cost::Cpu(matches * cm.opts().index_leaf_s);
  if (clustered) {
    c += cm.SeqRead(cm.PagesFor(catalog, root_type, matches));
  } else {
    c += cm.RandomRead(matches);
  }
  c += Cost::Cpu(matches * residual_evals * cm.opts().cpu_pred_s);
  return c;
}

Cost FilterCost(const CostModel& cm, double in_card,
                const std::vector<double>& sels) {
  return Cost::Cpu(in_card * ConjunctEvaluations(sels) * cm.opts().cpu_pred_s);
}

Cost HybridHashJoinCost(const CostModel& cm, double build_card,
                        double build_bytes, double probe_card,
                        double probe_bytes) {
  Cost c = cm.HashJoinCpu(build_card, probe_card);
  c += cm.HashJoinOverflowIo(build_card * build_bytes, probe_card * probe_bytes);
  return c;
}

Cost AssemblyCost(const CostModel& cm, const Catalog& catalog,
                  const BindingTable& bindings, double in_card,
                  const std::vector<MatStep>& steps, int window,
                  bool warm_start) {
  if (window <= 0) window = cm.opts().assembly_window;
  Cost c;
  for (const MatStep& step : steps) {
    TypeId t = bindings.def(step.target).type;
    c += Cost::Cpu(in_card * cm.opts().cpu_deref_s);
    if (warm_start && catalog.TypeCardinality(t).has_value()) {
      // Warm-start: sequentially pre-scan the referenced population into
      // memory, then resolve references as hash lookups.
      // References then resolve through an in-memory OID map; the per-
      // reference lookup is covered by the cpu_deref charge above.
      double population = static_cast<double>(*catalog.TypeCardinality(t));
      c += cm.SeqRead(cm.PagesFor(catalog, t, population));
      c += Cost::Cpu(population * cm.opts().cpu_hash_build_s);
    } else {
      c += cm.AssemblyIo(catalog, t, in_card, window);
    }
  }
  return c;
}

Cost PointerJoinCost(const CostModel& cm, const Catalog& catalog,
                     double left_card, TypeId target_type) {
  double faults = left_card;
  if (std::optional<int64_t> population = catalog.TypeCardinality(target_type)) {
    faults = std::min(faults, static_cast<double>(*population));
  }
  Cost c = cm.RandomRead(faults);
  c += Cost::Cpu(left_card * cm.opts().cpu_deref_s);
  return c;
}

Cost AlgProjectCost(const CostModel& cm, double card, double out_bytes) {
  return Cost::Cpu(card * (cm.opts().cpu_scan_tuple_s +
                           out_bytes * cm.opts().cpu_copy_byte_s));
}

Cost AlgUnnestCost(const CostModel& cm, double out_card) {
  return Cost::Cpu(out_card * cm.opts().cpu_unnest_s);
}

Cost SortCost(const CostModel& cm, double card, double bytes) {
  double n = std::max(card, 2.0);
  Cost c = Cost::Cpu(n * std::log2(n) * cm.opts().cpu_hash_probe_s);
  double total_bytes = card * bytes;
  if (total_bytes > cm.opts().memory_bytes) {
    c += cm.SeqRead(2.0 * total_bytes / cm.opts().page_size);
  }
  return c;
}

Cost PartialSortCost(const CostModel& cm, double card, double bytes,
                     double distinct_prefix) {
  // The input arrives sorted on a key prefix: only rows within a run of
  // equal prefix values need ordering, so the comparison count drops from
  // n·log2(n) to n·log2(n/runs). Runs are emitted as they complete, so the
  // external-merge I/O term applies per run, i.e. effectively never.
  double n = std::max(card, 2.0);
  double runs = std::max(1.0, std::min(distinct_prefix, n));
  double run_len = std::max(n / runs, 2.0);
  Cost c = Cost::Cpu(n * std::log2(run_len) * cm.opts().cpu_hash_probe_s);
  double run_bytes = run_len * bytes;
  if (run_bytes > cm.opts().memory_bytes) {
    c += cm.SeqRead(2.0 * (card * bytes) / cm.opts().page_size);
  }
  return c;
}

Cost TopKCost(const CostModel& cm, double card, int64_t k, double presorted) {
  double n = std::max(card, 1.0);
  double kk = std::max(1.0, std::min(static_cast<double>(k), n));
  if (presorted > 0.0) {
    // Input already fully sorted: a streaming cutoff after k rows.
    return Cost::Cpu(kk * cm.opts().cpu_pred_s);
  }
  // Bounded heap of k entries: every row pays a key comparison against the
  // current bound; the expected number of heap updates over a random
  // permutation is k·(1 + ln(n/k)) (the harmonic record bound), each a
  // log2(k) sift.
  double updates = kk * (1.0 + std::log(std::max(1.0, n / kk)));
  Cost c = Cost::Cpu(n * cm.opts().cpu_pred_s);
  c += Cost::Cpu(updates * std::log2(kk + 1.0) * cm.opts().cpu_hash_probe_s);
  return c;
}

Cost NestedLoopsCost(const CostModel& cm, double left_card, double left_bytes,
                     double right_card) {
  Cost c = Cost::Cpu(left_card * cm.opts().cpu_scan_tuple_s);
  c += Cost::Cpu(left_card * right_card * cm.opts().cpu_pred_s);
  double bytes = left_card * left_bytes;
  if (bytes > cm.opts().memory_bytes) {
    // Spilled fraction re-read once per probe pass (block nested loops).
    double passes = right_card > 0 ? 1.0 : 0.0;
    c += cm.SeqRead(passes * (bytes - cm.opts().memory_bytes) /
                    cm.opts().page_size);
  }
  return c;
}

Cost MergeJoinCost(const CostModel& cm, double left_card, double right_card) {
  // Merging sorted streams is cheaper per tuple than hashing.
  return Cost::Cpu((left_card + right_card) * cm.opts().cpu_pred_s);
}

Cost BatchOverheadCpu(const CostModel& cm, double card) {
  double batch = static_cast<double>(std::max(1, cm.opts().exec_batch_size));
  return Cost::Cpu(std::ceil(card / batch) * cm.opts().cpu_batch_overhead_s);
}

Cost ExchangeCost(const CostModel& cm, double out_card, int dop) {
  Cost c = Cost::Cpu(cm.opts().exchange_startup_s * static_cast<double>(dop) +
                     out_card * cm.opts().exchange_flow_tuple_s);
  c += BatchOverheadCpu(cm, out_card);
  return c;
}

Cost MergeExchangeCost(const CostModel& cm, double out_card, int dop) {
  // An order-preserving Exchange pays the plain Exchange terms plus a
  // loser-tree comparison per delivered row (log2(dop) key comparisons).
  Cost c = ExchangeCost(cm, out_card, dop);
  c += Cost::Cpu(out_card * std::log2(std::max(2, dop)) *
                 cm.opts().cpu_pred_s);
  return c;
}

}  // namespace oodb
