// Experiment F4 — Fig. 4 / Example 12 / Proposition 16: computing the
// copying width C and the deletion path width K. Verifies the paper's
// C = 3, K = 6 for Example 12 and measures the analysis on growing
// transducers (longest path in the cycle-condensed deletion path graph).

#include <benchmark/benchmark.h>

#include "src/base/logging.h"
#include "src/base/name.h"
#include "src/core/paper_examples.h"
#include "src/td/widths.h"

namespace xtc {
namespace {

void BM_Fig4_Example12Analysis(benchmark::State& state) {
  PaperExample ex = MakeExample12();
  for (auto _ : state) {
    WidthAnalysis w = AnalyzeWidths(*ex.transducer);
    XTC_CHECK(w.copying_width == 3);
    XTC_CHECK(w.dpw_bounded && w.deletion_path_width == 6);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_Fig4_Example12Analysis);

void BM_Fig4_ChainScaling(benchmark::State& state) {
  // A deletion chain of n width-2 states: K = 2^n; Proposition 16 stays
  // polynomial because costs multiply along the condensed DAG.
  const int n = static_cast<int>(state.range(0));
  Alphabet alphabet;
  alphabet.Intern("a");
  Transducer t(&alphabet);
  t.AddState("q0");
  for (int i = 1; i <= n; ++i) t.AddState(IndexedName("d", i));
  t.AddState("w");
  t.SetInitial(0);
  XTC_CHECK(t.SetRuleFromString("q0", "a", "a(d1)").ok());
  for (int i = 1; i <= n; ++i) {
    std::string next = i == n ? "w" : IndexedName("d", i + 1);
    XTC_CHECK(t.SetRuleFromString(IndexedName("d", i), "a",
                                  next + " " + next)
                  .ok());
  }
  XTC_CHECK(t.SetRuleFromString("w", "a", "a").ok());
  for (auto _ : state) {
    WidthAnalysis w = AnalyzeWidths(t);
    XTC_CHECK(w.dpw_bounded);
    benchmark::DoNotOptimize(w);
  }
  WidthAnalysis w = AnalyzeWidths(t);
  state.counters["K"] = static_cast<double>(w.deletion_path_width);
}
BENCHMARK(BM_Fig4_ChainScaling)->Arg(4)->Arg(16)->Arg(56);

void BM_Fig4_CycleDetection(benchmark::State& state) {
  // n recursively deleting width-one states arranged in a ring (the q7/q8
  // pattern of Fig. 4 scaled up): K stays 1, the SCC condensation does the
  // work.
  const int n = static_cast<int>(state.range(0));
  Alphabet alphabet;
  alphabet.Intern("a");
  Transducer t(&alphabet);
  t.AddState("q0");
  for (int i = 1; i <= n; ++i) t.AddState(IndexedName("r", i));
  t.SetInitial(0);
  XTC_CHECK(t.SetRuleFromString("q0", "a", "a(r1)").ok());
  for (int i = 1; i <= n; ++i) {
    std::string next = IndexedName("r", i % n + 1);
    XTC_CHECK(
        t.SetRuleFromString(IndexedName("r", i), "a", "a " + next).ok());
  }
  for (auto _ : state) {
    WidthAnalysis w = AnalyzeWidths(t);
    XTC_CHECK(w.dpw_bounded && w.deletion_path_width == 1);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_Fig4_CycleDetection)->Arg(8)->Arg(64)->Arg(256);

}  // namespace
}  // namespace xtc
