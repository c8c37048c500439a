#include "src/workload/generators.h"

#include "src/base/logging.h"
#include "src/base/name.h"

namespace xtc {
namespace {

int Rand(std::mt19937* rng, int lo, int hi) {  // inclusive bounds
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(*rng);
}

bool Chance(std::mt19937* rng, double p) {
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(*rng) < p;
}

void InternSymbols(Alphabet* alphabet, int n) {
  for (int i = 0; i < n; ++i) {
    alphabet->Intern(IndexedName("a", i));
  }
}

RhsNode RandomRhsNode(std::mt19937* rng, const RandomOptions& options,
                      int depth, bool allow_state) {
  // Leaning on labels keeps outputs interesting; states appear at leaves.
  if (allow_state && depth > 0 && Chance(rng, 0.4)) {
    return RhsNode::State(Rand(rng, 0, options.num_states - 1));
  }
  int label = Rand(rng, 0, options.num_symbols - 1);
  std::vector<RhsNode> children;
  if (depth < options.max_rhs_depth && Chance(rng, 0.6)) {
    int width = Rand(rng, 0, options.max_top_width);
    for (int i = 0; i < width; ++i) {
      children.push_back(RandomRhsNode(rng, options, depth + 1, true));
    }
  }
  return RhsNode::Label(label, std::move(children));
}

}  // namespace

Dtd RandomDfaDtd(std::mt19937* rng, Alphabet* alphabet,
                 const RandomOptions& options) {
  InternSymbols(alphabet, options.num_symbols);
  Dtd dtd(alphabet, *alphabet->Find("a0"));
  for (int s = 0; s < options.num_symbols; ++s) {
    Dfa dfa(alphabet->size());
    for (int i = 0; i < options.dfa_states_per_rule; ++i) {
      dfa.AddState(Chance(rng, 0.5));
    }
    dfa.SetInitial(0);
    for (int i = 0; i < options.dfa_states_per_rule; ++i) {
      for (int sym = 0; sym < options.num_symbols; ++sym) {
        if (Chance(rng, 0.5)) {
          dfa.SetTransition(i, sym,
                            Rand(rng, 0, options.dfa_states_per_rule - 1));
        }
      }
    }
    // Keep leaves possible: initial state accepts with some probability.
    if (Chance(rng, 0.7)) dfa.SetFinal(0);
    dtd.SetRuleDfa(s, std::move(dfa));
  }
  return dtd;
}

Dtd RandomRePlusDtd(std::mt19937* rng, Alphabet* alphabet,
                    const RandomOptions& options) {
  InternSymbols(alphabet, options.num_symbols);
  Dtd dtd(alphabet, *alphabet->Find("a0"));
  for (int s = 0; s < options.num_symbols; ++s) {
    // Only factors with larger symbol index keep the DTD non-recursive and
    // every symbol inhabited.
    std::vector<RegexPtr> factors;
    int len = Rand(rng, 0, 3);
    for (int i = 0; i < len; ++i) {
      if (s + 1 >= options.num_symbols) break;
      int sym = Rand(rng, s + 1, options.num_symbols - 1);
      RegexPtr f = Regex::Sym(sym);
      if (Chance(rng, 0.5)) f = Regex::Plus(f);
      factors.push_back(f);
    }
    dtd.SetRule(s, Regex::Concat(std::move(factors)));
  }
  return dtd;
}

Transducer RandomTransducer(std::mt19937* rng, Alphabet* alphabet,
                            const RandomOptions& options) {
  InternSymbols(alphabet, options.num_symbols);
  Transducer t(alphabet);
  for (int q = 0; q < options.num_states; ++q) {
    t.AddState(IndexedName("q", q));
  }
  t.SetInitial(0);
  for (int q = 0; q < options.num_states; ++q) {
    for (int a = 0; a < options.num_symbols; ++a) {
      if (q != 0 && !Chance(rng, options.rule_density)) continue;
      RhsHedge rhs;
      if (q == 0) {
        // Initial rules: single label-rooted tree.
        std::vector<RhsNode> children;
        int width = Rand(rng, 0, options.max_top_width);
        for (int i = 0; i < width; ++i) {
          children.push_back(RandomRhsNode(rng, options, 1, true));
        }
        rhs.push_back(
            RhsNode::Label(Rand(rng, 0, options.num_symbols - 1),
                           std::move(children)));
      } else {
        int width = Rand(rng, 0, options.max_top_width);
        int states_used = 0;
        for (int i = 0; i < width; ++i) {
          bool state_ok =
              options.allow_deletion &&
              (options.allow_copying || states_used == 0) &&
              Chance(rng, 0.3);
          if (state_ok) {
            rhs.push_back(
                RhsNode::State(Rand(rng, 0, options.num_states - 1)));
            ++states_used;
          } else {
            rhs.push_back(RandomRhsNode(rng, options, 1,
                                        options.allow_copying));
          }
        }
      }
      t.SetRule(q, a, std::move(rhs));
    }
  }
  return t;
}

PaperExample RandomInstance(std::uint32_t seed, const RandomOptions& options,
                            bool re_plus) {
  std::mt19937 rng(seed);
  PaperExample ex;
  ex.alphabet = std::make_shared<Alphabet>();
  InternSymbols(ex.alphabet.get(), options.num_symbols);
  if (re_plus) {
    ex.din = std::make_shared<Dtd>(
        RandomRePlusDtd(&rng, ex.alphabet.get(), options));
    ex.dout = std::make_shared<Dtd>(
        RandomRePlusDtd(&rng, ex.alphabet.get(), options));
  } else {
    ex.din =
        std::make_shared<Dtd>(RandomDfaDtd(&rng, ex.alphabet.get(), options));
    ex.dout =
        std::make_shared<Dtd>(RandomDfaDtd(&rng, ex.alphabet.get(), options));
  }
  ex.transducer = std::make_shared<Transducer>(
      RandomTransducer(&rng, ex.alphabet.get(), options));
  return ex;
}

Node* RandomTree(std::mt19937* rng, int num_symbols, int depth, int max_width,
                 TreeBuilder* builder) {
  int label = Rand(rng, 0, num_symbols - 1);
  std::vector<Node*> kids;
  if (depth > 1) {
    int width = Rand(rng, 0, max_width);
    for (int i = 0; i < width; ++i) {
      kids.push_back(
          RandomTree(rng, num_symbols, depth - 1, max_width, builder));
    }
  }
  return builder->Make(label, kids);
}

}  // namespace xtc
