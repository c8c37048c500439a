// Experiment E6 / Ablation A1 — Theorem 37: DTD(RE+) schemas admit PTIME
// typechecking for ARBITRARY transducers. The copying width sweep shows the
// crossover the paper predicts: the Lemma 14 engine is exponential in the
// copying width while the Section 5 grammar engine and the Section 6
// t_min/t_vast engine stay polynomial.

#include <benchmark/benchmark.h>

#include "src/base/logging.h"
#include "src/base/name.h"
#include "src/core/minvast.h"
#include "src/core/replus.h"
#include "src/core/trac.h"
#include "src/workload/families.h"

namespace xtc {
namespace {

void BM_RePlus_GrammarEngine(benchmark::State& state) {
  PaperExample ex = RePlusCopyFamily(static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckRePlus(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK(r.ok() && r->typechecks);
  }
  state.counters["copy_width"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RePlus_GrammarEngine)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Arg(32);

void BM_RePlus_MinVastEngine(benchmark::State& state) {
  PaperExample ex = RePlusCopyFamily(static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckMinVast(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK(r.ok() && r->typechecks);
  }
}
BENCHMARK(BM_RePlus_MinVastEngine)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Arg(32);

// Ablation: the same instances through the Lemma 14 engine, which pays
// |dout|^{C·K}. The sweep stops early — that is the point.
void BM_RePlus_Lemma14Comparison(benchmark::State& state) {
  PaperExample ex = RePlusCopyFamily(static_cast<int>(state.range(0)));
  TypecheckOptions opts;
  opts.want_counterexample = false;
  opts.max_configs = 1u << 24;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(r->typechecks);
  }
}
BENCHMARK(BM_RePlus_Lemma14Comparison)->Arg(1)->Arg(2)->Arg(4)->Arg(6)
    ->Unit(benchmark::kMillisecond);

// Schema-size scaling at fixed copying width.
void BM_RePlus_SchemaDepth(benchmark::State& state) {
  // A chain DTD(RE+) of depth n with a 3-copying transducer.
  const int n = static_cast<int>(state.range(0));
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  for (int i = 0; i <= n; ++i) ex.alphabet->Intern(IndexedName("s", i));
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), 0);
  for (int i = 0; i < n; ++i) {
    XTC_CHECK(
        ex.din->SetRule(IndexedName("s", i), IndexedName("s", i + 1) + "+")
            .ok());
  }
  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  ex.transducer->AddState("q0");
  ex.transducer->AddState("q");
  ex.transducer->SetInitial(0);
  XTC_CHECK(
      ex.transducer->SetRuleFromString("q0", "s0", "s0(q q q)").ok());
  for (int i = 1; i <= n; ++i) {
    XTC_CHECK(ex.transducer
                  ->SetRuleFromString("q", IndexedName("s", i),
                                      IndexedName("s", i) + "(q q q)")
                  .ok());
  }
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), 0);
  for (int i = 0; i < n; ++i) {
    XTC_CHECK(
        ex.dout->SetRule(IndexedName("s", i), IndexedName("s", i + 1) + "+")
            .ok());
  }
  TypecheckOptions opts;
  opts.want_counterexample = false;
  for (auto _ : state) {
    StatusOr<TypecheckResult> r =
        TypecheckRePlus(*ex.transducer, *ex.din, *ex.dout, opts);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(r->typechecks);
  }
}
BENCHMARK(BM_RePlus_SchemaDepth)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
}  // namespace xtc
