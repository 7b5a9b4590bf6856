// The benchmark's own fast self-test, at the reduced scale: decks are a
// pure function of the seed, the traced replica returns exactly what
// Session::Query returns, simulated seconds included, at dop 1, and every
// join class returns rows on the reduced deck it is checked on. That every
// metric prints with its declared name and unit is checked by
// `run.py --selftest` against BENCHMARK.json.
#include <cstdio>

#include "perfbench/bench.h"

namespace perfbench {

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool cond, const std::string& what) {
    if (!cond) {
      ++failures;
      std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    }
  };
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec w = *FindWorkload(name);
    std::vector<Statement> a = MakeDeck(w, w.reduced, 7);
    std::vector<Statement> b = MakeDeck(w, w.reduced, 7);
    std::vector<Statement> c = MakeDeck(w, w.reduced, 8);
    bool same = a.size() == b.size(), differs = false;
    for (size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].cls == b[i].cls && a[i].text == b[i].text;
      differs = differs || a[i].text != c[i].text;
    }
    expect(same, name + ": the same seed gives the same statements");
    expect(differs, name + ": another seed gives other statements");

    w.options.optimizer.max_dop = 1;
    Result<std::unique_ptr<Instance>> inst = BuildInstance(w, w.reduced);
    expect(inst.ok(), name + ": reduced set-up");
    if (!inst.ok()) continue;
    Session& session = *(*inst)->session;
    Replica replica(&session);
    std::vector<int64_t> class_rows(w.classes.size(), 0);
    // Two passes: the second serves OO7 plans from both plan caches.
    for (int pass = 0; pass < 2; ++pass) {
      for (const Statement& st : a) {
        const bool ordered = !w.classes[st.cls].order_cols.empty();
        Outcome got = ToOutcome(session.Query(st.text), ordered);
        class_rows[st.cls] += got.rows;
        ReplicaSample s = replica.Run(st.text);
        const std::string what = name + ": " + st.text;
        expect(got.ok && s.ok, what + ": executes (" + got.error + s.error +
                                   ")");
        expect(s.exec.rows == got.rows &&
                   RowsDigest(s.exec.sample_rows, ordered) == got.digest,
               what + ": replica rows equal Session::Query rows");
        expect(s.exec.sim_total_s() == got.sim_s,
               what + ": replica simulated seconds equal Session::Query's");
        expect(pass == 0 || s.cache_hit == s.cache_probed,
               what + ": every probe hits the plan cache on the second pass");
      }
    }
    // Join classes are checked against the reference on this instance (the
    // other classes at full scale), so an empty result would leave their
    // check with nothing to compare.
    for (size_t c = 0; c < w.classes.size(); ++c) {
      expect(!w.classes[c].join || class_rows[c] > 0,
             name + ": join class " + w.classes[c].name +
                 " returns rows on the reduced deck");
    }
  }
  std::printf("selftest: %s (%d failures)\n", failures == 0 ? "ok" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
