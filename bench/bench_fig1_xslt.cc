// Experiment F1 — Fig. 1: rendering transducers as XSLT programs. Measures
// the exporter on the Example 6 transducer and on transducers with growing
// rule sets; prints the Fig. 1 program once as a label check.

#include <benchmark/benchmark.h>

#include "src/base/logging.h"
#include "src/base/name.h"
#include "src/core/paper_examples.h"
#include "src/td/xslt_export.h"

namespace xtc {
namespace {

void BM_Fig1_ExportExample6(benchmark::State& state) {
  PaperExample ex = MakeExample6();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string xslt = ExportXslt(*ex.transducer);
    bytes = xslt.size();
    benchmark::DoNotOptimize(xslt);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_Fig1_ExportExample6);

void BM_Fig1_ExportScaling(benchmark::State& state) {
  // n states, one rule each over one symbol.
  const int n = static_cast<int>(state.range(0));
  Alphabet alphabet;
  alphabet.Intern("a");
  Transducer t(&alphabet);
  for (int i = 0; i < n; ++i) t.AddState(IndexedName("q", i));
  t.SetInitial(0);
  for (int i = 0; i < n; ++i) {
    std::string next = IndexedName("q", (i + 1) % n);
    Status s = t.SetRuleFromString(IndexedName("q", i), "a",
                                   "a(" + next + ")");
    XTC_CHECK(s.ok());
  }
  for (auto _ : state) {
    std::string xslt = ExportXslt(t);
    benchmark::DoNotOptimize(xslt);
  }
}
BENCHMARK(BM_Fig1_ExportScaling)->Arg(8)->Arg(64)->Arg(512);

}  // namespace
}  // namespace xtc
