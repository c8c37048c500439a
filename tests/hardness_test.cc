#include "src/core/hardness.h"

#include <ostream>

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/trac.h"
#include "src/td/compile_selectors.h"
#include "src/td/widths.h"
#include "src/xpath/parser.h"

namespace xtc {
namespace {

// A DFA over symbols {0..num_symbols-1} accepting words whose length is
// congruent to `residue` mod `modulus`.
Dfa LengthModDfa(int num_symbols, int modulus, int residue) {
  Dfa d(num_symbols);
  for (int i = 0; i < modulus; ++i) d.AddState(i == residue);
  d.SetInitial(0);
  for (int i = 0; i < modulus; ++i) {
    for (int s = 0; s < num_symbols; ++s) {
      d.SetTransition(i, s, (i + 1) % modulus);
    }
  }
  return d;
}

TEST(HardnessTest, DfaIntersectionOracle) {
  // len ≡ 0 mod 2 ∩ len ≡ 1 mod 2 is empty; mod 2 / mod 3 is not.
  std::vector<Dfa> disjoint{LengthModDfa(2, 2, 0), LengthModDfa(2, 2, 1)};
  EXPECT_TRUE(DfaIntersectionEmpty(disjoint));
  std::vector<Dfa> joint{LengthModDfa(2, 2, 0), LengthModDfa(2, 3, 0)};
  EXPECT_FALSE(DfaIntersectionEmpty(joint));
}

TEST(HardnessTest, FirstPrimes) {
  EXPECT_EQ(FirstPrimes(5), (std::vector<int>{2, 3, 5, 7, 11}));
}

TEST(HardnessTest, Theorem18ReductionIsFaithful) {
  // Over Δ = {x, y}: the instance typechecks iff the intersection is empty.
  std::vector<std::string> delta{"x", "y"};
  {
    std::vector<Dfa> dfas{LengthModDfa(2, 2, 0), LengthModDfa(2, 2, 1),
                          LengthModDfa(2, 3, 0)};
    ASSERT_TRUE(DfaIntersectionEmpty(dfas));
    PaperExample ex = MakeTheorem18Instance(dfas, delta);
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->typechecks);
  }
  {
    std::vector<Dfa> dfas{LengthModDfa(2, 2, 0), LengthModDfa(2, 3, 0)};
    ASSERT_FALSE(DfaIntersectionEmpty(dfas));
    PaperExample ex = MakeTheorem18Instance(dfas, delta);
    StatusOr<TypecheckResult> r =
        TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->typechecks);
    EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                     r->counterexample));
  }
}

TEST(HardnessTest, Theorem18TransducerHasBoundedWidths) {
  std::vector<Dfa> dfas{LengthModDfa(1, 2, 0), LengthModDfa(1, 3, 0)};
  PaperExample ex = MakeTheorem18Instance(dfas, {"x"});
  WidthAnalysis w = AnalyzeWidths(*ex.transducer);
  EXPECT_TRUE(w.dpw_bounded);
  EXPECT_EQ(w.copying_width, 2);
}

TEST(HardnessTest, Lemma27EncodingMatchesSatisfiability) {
  // (x0 ∨ x1 ∨ x2) ∧ (¬x0 ∨ x1 ∨ ¬x2): satisfiable (e.g. x1 true).
  std::vector<CnfClause> sat{
      CnfClause{CnfLiteral{0, true}, CnfLiteral{1, true}, CnfLiteral{2, true}},
      CnfClause{CnfLiteral{0, false}, CnfLiteral{1, true},
                CnfLiteral{2, false}}};
  std::vector<Dfa> sat_dfas = Make3CnfUnaryDfas(sat, 3);
  EXPECT_FALSE(DfaIntersectionEmpty(sat_dfas));

  // x0 ∧ ¬x0 (padded to 3 literals with the same variable): unsatisfiable.
  std::vector<CnfClause> unsat{
      CnfClause{CnfLiteral{0, true}, CnfLiteral{0, true}, CnfLiteral{0, true}},
      CnfClause{CnfLiteral{0, false}, CnfLiteral{0, false},
                CnfLiteral{0, false}}};
  std::vector<Dfa> unsat_dfas = Make3CnfUnaryDfas(unsat, 1);
  EXPECT_TRUE(DfaIntersectionEmpty(unsat_dfas));
}

TEST(HardnessTest, Theorem28ReductionAgreesWithBruteForce) {
  // Unary DFAs: len ≡ 0 mod 2 and len ≡ 0 mod 3 intersect at a^0, a^6, ...
  {
    std::vector<Dfa> dfas{LengthModDfa(1, 2, 0), LengthModDfa(1, 3, 0)};
    PaperExample ex = MakeTheorem28Instance(dfas);
    StatusOr<Transducer> compiled = CompileSelectors(*ex.transducer);
    ASSERT_TRUE(compiled.ok());
    BruteForceOptions bf;
    bf.max_depth = 5;
    bf.max_width = 7;
    bf.max_trees = 200000;
    StatusOr<TypecheckResult> r =
        TypecheckBruteForce(*compiled, *ex.din, *ex.dout, bf);
    ASSERT_TRUE(r.ok());
    // Intersection nonempty (the empty word): a counterexample exists with
    // two # levels and zero a's.
    EXPECT_FALSE(r->typechecks);
    EXPECT_TRUE(
        VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                             r->counterexample));
  }
  {
    std::vector<Dfa> dfas{LengthModDfa(1, 2, 0), LengthModDfa(1, 2, 1)};
    ASSERT_TRUE(DfaIntersectionEmpty(dfas));
    PaperExample ex = MakeTheorem28Instance(dfas);
    StatusOr<Transducer> compiled = CompileSelectors(*ex.transducer);
    ASSERT_TRUE(compiled.ok());
    BruteForceOptions bf;
    bf.max_depth = 5;
    bf.max_width = 6;
    bf.max_trees = 100000;
    StatusOr<TypecheckResult> r =
        TypecheckBruteForce(*compiled, *ex.din, *ex.dout, bf);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->typechecks);  // no counterexample within bounds
  }
}

TEST(HardnessTest, Theorem28CompiledTransducerHasUnboundedWidth) {
  // Compiling the .//# selector away yields recursive deletion WITH
  // copying: exactly why the fragment is intractable.
  std::vector<Dfa> dfas{LengthModDfa(1, 2, 0)};
  PaperExample ex = MakeTheorem28Instance(dfas);
  StatusOr<Transducer> compiled = CompileSelectors(*ex.transducer);
  ASSERT_TRUE(compiled.ok());
  WidthAnalysis w = AnalyzeWidths(*compiled);
  EXPECT_FALSE(w.dpw_bounded);
}

TEST(HardnessTest, Lemma26PatternTransformation) {
  Alphabet alphabet;
  for (const char* s : {"a", "b", "c", "e", "x1"}) alphabet.Intern(s);
  int x1 = *alphabet.Find("x1");
  // Example 25: the selecting literals of .//a/b/((c/d)|(b/e)) are d and e.
  StatusOr<XPathPatternPtr> p =
      ParseXPath(".//a/b/((c/d)|(b/e))", &alphabet);
  ASSERT_TRUE(p.ok());
  XPathPatternPtr transformed = Lemma26Pattern(*p, x1);
  EXPECT_EQ(PatternToString(*transformed, alphabet),
            ".//a/b/(c/d/x1|b/e/x1)");
  // Descendant-axis literal gets //x1.
  StatusOr<XPathPatternPtr> q = ParseXPath(".//a", &alphabet);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(PatternToString(*Lemma26Pattern(*q, x1), alphabet), ".//a//x1");
  // Filters stay attached before the appended step.
  StatusOr<XPathPatternPtr> f = ParseXPath("./a[./b]", &alphabet);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(PatternToString(*Lemma26Pattern(*f, x1), alphabet),
            "./a[./b]/x1");
}

struct ContainmentCase {
  const char* p1;
  const char* p2;
  bool contained;
};

// Names each case by its two patterns; the default byte dump would print
// their addresses, which change from run to run.
void PrintTo(const ContainmentCase& c, std::ostream* os) {
  *os << c.p1 << " vs " << c.p2;
}

class Theorem28aTest : public ::testing::TestWithParam<ContainmentCase> {};

TEST_P(Theorem28aTest, ReductionAgreesWithContainmentOracle) {
  auto alphabet = std::make_shared<Alphabet>();
  for (const char* s : {"s", "a", "b", "c", "r", "x1", "x2"}) {
    alphabet->Intern(s);
  }
  // Base DTD: s → a? b?; a → c?; b → c?.
  Dtd d(alphabet.get(), *alphabet->Find("s"));
  ASSERT_TRUE(d.SetRule("s", "a? b?").ok());
  ASSERT_TRUE(d.SetRule("a", "c?").ok());
  ASSERT_TRUE(d.SetRule("b", "c?").ok());
  StatusOr<XPathPatternPtr> p1 = ParseXPath(GetParam().p1, alphabet.get());
  StatusOr<XPathPatternPtr> p2 = ParseXPath(GetParam().p2, alphabet.get());
  ASSERT_TRUE(p1.ok() && p2.ok());

  BruteForceOptions bounds;
  bounds.max_depth = 4;
  bounds.max_width = 4;
  EXPECT_EQ(XPathContainedBounded(**p1, **p2, d, bounds),
            GetParam().contained);

  PaperExample ex = MakeTheorem28aInstance(alphabet, d, *p1, *p2);
  // The reduced instance checked with the bounded-complete baseline (the
  // instance's transducer carries filters, so only execution-based
  // checking applies). Bounds cover d' entirely: depth <= 4, width <= 6.
  BruteForceOptions bf;
  bf.max_depth = 5;
  bf.max_width = 6;
  bf.max_trees = 100000;
  StatusOr<TypecheckResult> r =
      TypecheckBruteForce(*ex.transducer, *ex.din, *ex.dout, bf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->typechecks, GetParam().contained)
      << GetParam().p1 << " vs " << GetParam().p2;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem28aTest,
    ::testing::Values(ContainmentCase{"./a", "./*", true},
                      ContainmentCase{"./*", "./a", false},
                      ContainmentCase{"./a/c", ".//c", true},
                      ContainmentCase{".//c", "./a/c", false},
                      ContainmentCase{"./(a|b)", "./*", true},
                      ContainmentCase{"./a[./c]", "./a", true},
                      ContainmentCase{"./a", "./a[./c]", false},
                      ContainmentCase{".//c", ".//*", true}));

}  // namespace
}  // namespace xtc
