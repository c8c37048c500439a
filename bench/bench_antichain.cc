// Experiment E8 — antichain subsumption pruning (DESIGN.md §3e) on
// large-universe inclusion queries. The shift-register family below is
// built so that the lazy engine's discovery set without pruning holds the
// full union lattice over k generator states (~2^k determinized subsets,
// and the joint horizontal space squares that), while every one of those
// subsets is dominated under the complemented polarity by the singleton
// {q0} minted from the very first leaf — so the antichain layer collapses
// the whole exploration to O(k) live configurations. The On/Off rows are
// paired and gated by ci/ratio_gate.py (>= 2x at the largest common
// parameter). `pad` adds dead states to push the subset-mask universe past
// kDefaultDenseThreshold, so the On rows also exercise the sorted-sparse
// AdaptiveStateSet representation; the Dense rows keep pad = 0 to cover
// the word-parallel path.

#include <benchmark/benchmark.h>

#include "src/base/logging.h"
#include "src/nta/lazy.h"
#include "src/nta/nta.h"

namespace xtc {
namespace {

// Alphabet layout for universe size k: symbol 0 is the unit leaf `u`,
// symbols 1..k are the generator leaves b_i, symbol k+1 is the internal
// node `n` (one or more children).
int NumSymbols(int k) { return k + 2; }

Nfa EpsilonNfa(int alphabet) {
  Nfa nfa(alphabet);
  nfa.AddState(/*initial=*/true, /*final=*/true);
  return nfa;
}

// Sigma* q Sigma* over the live letters 0..k: accepts any child word in
// which some child can carry state q. Edges exist only for live letters —
// pad states never label a child, so their columns would be dead weight.
Nfa ContainsLetterNfa(int alphabet, int live_letters, int q) {
  Nfa nfa(alphabet);
  int s0 = nfa.AddState(/*initial=*/true, /*final=*/false);
  int s1 = nfa.AddState(/*initial=*/false, /*final=*/true);
  for (int c = 0; c < live_letters; ++c) {
    nfa.AddTransition(s0, c, s0);
    nfa.AddTransition(s1, c, s1);
  }
  nfa.AddTransition(s0, q, s1);
  return nfa;
}

// The existential side: one state accepting every tree whose leaves are
// u/b_i and whose n-nodes have at least one child. The >= 1 child floor
// matters: it keeps the determinized side's reachable subsets non-empty
// (q0 runs on every such tree), so the complemented component never
// accepts and the engine must reach the full fixpoint — the bench times
// exploration, not an early exit.
Nta UniversalNta(int k) {
  Nta a(NumSymbols(k), 1);
  a.SetFinal(0);
  for (int s = 0; s <= k; ++s) a.SetTransition(0, s, EpsilonNfa(1));
  Nfa one_or_more(1);
  int s0 = one_or_more.AddState(/*initial=*/true, /*final=*/false);
  int s1 = one_or_more.AddState(/*initial=*/false, /*final=*/true);
  one_or_more.AddTransition(s0, 0, s1);
  one_or_more.AddTransition(s1, 0, s1);
  a.SetTransition(0, k + 1, one_or_more);
  return a;
}

// The determinized side: states q0..qk plus `pad` dead states. q0 (final)
// runs on every tree; q_i additionally marks leaf b_i and propagates up
// through any n-node that has a q_i-capable child. Bottom-up subsets are
// therefore {q0} (leaf u), {q0, q_i} (leaf b_i), and every union
// {q0} ∪ S over S ⊆ {q1..qk} at n-nodes — 2^k reachable subsets, all
// containing the final q0, all supersets of the leaf-u singleton.
Nta ShiftRegisterNta(int k, int pad) {
  const int num_states = k + 1 + pad;
  Nta b(NumSymbols(k), num_states);
  b.SetFinal(0);
  b.SetTransition(0, 0, EpsilonNfa(num_states));
  for (int i = 1; i <= k; ++i) {
    b.SetTransition(0, i, EpsilonNfa(num_states));
    b.SetTransition(i, i, EpsilonNfa(num_states));
  }
  for (int q = 0; q <= k; ++q) {
    b.SetTransition(q, k + 1, ContainsLetterNfa(num_states, k + 1, q));
  }
  return b;
}

void RunAntichainInclusion(benchmark::State& state, bool antichain) {
  const int k = static_cast<int>(state.range(0));
  const int pad = static_cast<int>(state.range(1));
  Nta a = UniversalNta(k);
  Nta b = ShiftRegisterNta(k, pad);
  LazyProductSpec spec;
  spec.AddNta(&a);
  spec.AddDeterminized(&b, /*complement=*/true);
  LazyOptions options;
  options.antichain = antichain;
  // Verdict agreement between the pruned and unpruned engines is asserted
  // outside the timing loop; both must reach the empty fixpoint.
  LazyOptions off;
  off.antichain = false;
  StatusOr<EmptinessOutcome> pruned = LazyEmptiness(spec, nullptr);
  StatusOr<EmptinessOutcome> full = LazyEmptiness(spec, nullptr, off);
  XTC_CHECK_MSG(pruned.ok(), pruned.status().ToString().c_str());
  XTC_CHECK_MSG(full.ok(), full.status().ToString().c_str());
  XTC_CHECK(pruned->empty && full->empty);
  LazyStats stats;
  for (auto _ : state) {
    StatusOr<EmptinessOutcome> out = LazyEmptiness(spec, nullptr, options);
    XTC_CHECK_MSG(out.ok(), out.status().ToString().c_str());
    benchmark::DoNotOptimize(out->empty);
    stats = out->stats;
  }
  state.counters["configs"] = static_cast<double>(stats.configs);
  state.counters["pruned"] =
      static_cast<double>(stats.pruned_configs + stats.displaced_configs);
  state.counters["universe"] = static_cast<double>(b.num_states());
}

// Sparse-universe rows: pad = 4096 dead states push the mask universe past
// kDefaultDenseThreshold (2048), so subset masks run sorted-sparse.
void BM_AntichainInclusion_On(benchmark::State& state) {
  RunAntichainInclusion(state, /*antichain=*/true);
}
void BM_AntichainInclusion_Off(benchmark::State& state) {
  RunAntichainInclusion(state, /*antichain=*/false);
}
BENCHMARK(BM_AntichainInclusion_On)
    ->Args({6, 4096})->Args({8, 4096})->Args({10, 4096})
    ->Unit(benchmark::kMillisecond)->MinTime(0.25);
BENCHMARK(BM_AntichainInclusion_Off)
    ->Args({6, 4096})->Args({8, 4096})->Args({10, 4096})
    ->Unit(benchmark::kMillisecond)->MinTime(0.25);

// Dense-universe rows: the same family inside the word-parallel sweet
// spot. The pruning win is representation-independent; this pair keeps
// the gate honest about that.
void BM_AntichainInclusionDense_On(benchmark::State& state) {
  RunAntichainInclusion(state, /*antichain=*/true);
}
void BM_AntichainInclusionDense_Off(benchmark::State& state) {
  RunAntichainInclusion(state, /*antichain=*/false);
}
BENCHMARK(BM_AntichainInclusionDense_On)
    ->Args({6, 0})->Args({8, 0})->Args({10, 0})
    ->Unit(benchmark::kMillisecond)->MinTime(0.25);
BENCHMARK(BM_AntichainInclusionDense_Off)
    ->Args({6, 0})->Args({8, 0})->Args({10, 0})
    ->Unit(benchmark::kMillisecond)->MinTime(0.25);

}  // namespace
}  // namespace xtc
