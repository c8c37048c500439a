// Experiment E8 — Corollary 39: almost-always typechecking (finitely many
// counterexamples) in PTIME via the explicit Lemma 14 automaton and the
// Proposition 4(1) finiteness test.

#include <benchmark/benchmark.h>

#include "src/base/logging.h"
#include "src/base/name.h"
#include "src/core/almost_always.h"
#include "src/workload/families.h"

namespace xtc {
namespace {

void BM_Cor39_TypecheckingInstances(benchmark::State& state) {
  // Typechecking instances are trivially almost-always.
  PaperExample ex = FilterFamily(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    StatusOr<bool> r =
        TypechecksAlmostAlways(*ex.transducer, *ex.din, *ex.dout, 2000000);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(*r);
  }
}
BENCHMARK(BM_Cor39_TypecheckingInstances)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_Cor39_FinitelyManyCounterexamples(benchmark::State& state) {
  // FailingFilterFamily has exactly one violating document (the single-
  // section book): almost-always typechecks although typechecking fails.
  PaperExample ex = FailingFilterFamily(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    StatusOr<bool> r =
        TypechecksAlmostAlways(*ex.transducer, *ex.din, *ex.dout, 2000000);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(*r);
  }
}
BENCHMARK(BM_Cor39_FinitelyManyCounterexamples)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// An instance with infinitely many counterexamples: deleted b-pumps keep
// the violating output r(a) reachable from unboundedly many inputs.
PaperExample InfiniteCexFamily(int n) {
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  ex.alphabet->Intern("r");
  ex.alphabet->Intern("a");
  for (int i = 0; i < n; ++i) ex.alphabet->Intern(IndexedName("b", i));
  ex.din = std::make_shared<Dtd>(ex.alphabet.get(), 0);
  std::string rule = "a";
  for (int i = 0; i < n; ++i) rule += " b" + std::to_string(i) + "*";
  XTC_CHECK(ex.din->SetRule("r", rule).ok());
  ex.transducer = std::make_shared<Transducer>(ex.alphabet.get());
  ex.transducer->AddState("q0");
  ex.transducer->AddState("q");
  ex.transducer->SetInitial(0);
  XTC_CHECK(ex.transducer->SetRuleFromString("q0", "r", "r(q)").ok());
  XTC_CHECK(ex.transducer->SetRuleFromString("q", "a", "a").ok());
  ex.dout = std::make_shared<Dtd>(ex.alphabet.get(), 0);
  XTC_CHECK(ex.dout->SetRule("r", "a a").ok());  // never satisfied
  return ex;
}

void BM_Cor39_InfinitelyManyCounterexamples(benchmark::State& state) {
  PaperExample ex = InfiniteCexFamily(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    StatusOr<bool> r =
        TypechecksAlmostAlways(*ex.transducer, *ex.din, *ex.dout, 2000000);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    XTC_CHECK(!*r);
  }
}
BENCHMARK(BM_Cor39_InfinitelyManyCounterexamples)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xtc
