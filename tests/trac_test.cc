#include "src/core/trac.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "src/core/brute_force.h"
#include "src/core/nfa_dtd.h"
#include "src/core/paper_examples.h"
#include "src/td/widths.h"
#include "src/tree/codec.h"
#include "src/workload/families.h"
#include "src/workload/generators.h"

namespace xtc {
namespace {

TEST(TracTest, Example11Typechecks) {
  // The book summary transducer typechecks against Example 11's DTD.
  PaperExample ex = MakeBookExample(/*with_summary=*/true);
  StatusOr<TypecheckResult> r = TypecheckTrac(*ex.transducer, *ex.din,
                                              *ex.dout);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->typechecks);
}

TEST(TracTest, TocTransducerTypechecks) {
  PaperExample ex = MakeBookExample(/*with_summary=*/false);
  StatusOr<TypecheckResult> r = TypecheckTrac(*ex.transducer, *ex.din,
                                              *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->typechecks);
}

TEST(TracTest, TightenedOutputSchemaFailsWithCounterexample) {
  PaperExample ex = MakeBookExample(/*with_summary=*/false);
  // Demand exactly one title after each chapter: deeper sections violate it.
  ASSERT_TRUE(ex.dout->SetRule("book", "title (chapter title)+").ok());
  StatusOr<TypecheckResult> r = TypecheckTrac(*ex.transducer, *ex.din,
                                              *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->typechecks);
  ASSERT_NE(r->counterexample, nullptr);
  EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                   r->counterexample));
}

TEST(TracTest, MissingInitialRuleFails) {
  PaperExample ex = MakeBookExample(false);
  Transducer empty(ex.alphabet.get());
  empty.AddState("q0");
  empty.SetInitial(0);
  StatusOr<TypecheckResult> r = TypecheckTrac(empty, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->typechecks);
  ASSERT_NE(r->counterexample, nullptr);
  EXPECT_TRUE(VerifyCounterexample(empty, *ex.din, *ex.dout,
                                   r->counterexample));
}

TEST(TracTest, WrongRootLabelFails) {
  PaperExample ex = MakeBookExample(false);
  Transducer t(ex.alphabet.get());
  t.AddState("q0");
  t.SetInitial(0);
  ASSERT_TRUE(t.SetRuleFromString("q0", "book", "title").ok());
  StatusOr<TypecheckResult> r = TypecheckTrac(t, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->typechecks);
  EXPECT_TRUE(VerifyCounterexample(t, *ex.din, *ex.dout, r->counterexample));
}

TEST(TracTest, EmptyInputLanguageTypechecksVacuously) {
  Alphabet alphabet;
  alphabet.Intern("r");
  Dtd din(&alphabet, 0);
  ASSERT_TRUE(din.SetRule("r", "r").ok());  // recursive: empty language
  Dtd dout(&alphabet, 0);
  Transducer t(&alphabet);
  t.AddState("q0");
  t.SetInitial(0);
  StatusOr<TypecheckResult> r = TypecheckTrac(t, din, dout);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->typechecks);
}

TEST(TracTest, FilterFamilyTypechecksAndFailingVariantDoesNot) {
  for (int n = 1; n <= 4; ++n) {
    PaperExample good = FilterFamily(n);
    StatusOr<TypecheckResult> r1 =
        TypecheckTrac(*good.transducer, *good.din, *good.dout);
    ASSERT_TRUE(r1.ok());
    EXPECT_TRUE(r1->typechecks) << n;

    PaperExample bad = FailingFilterFamily(n);
    StatusOr<TypecheckResult> r2 =
        TypecheckTrac(*bad.transducer, *bad.din, *bad.dout);
    ASSERT_TRUE(r2.ok());
    EXPECT_FALSE(r2->typechecks) << n;
    ASSERT_NE(r2->counterexample, nullptr);
    EXPECT_TRUE(VerifyCounterexample(*bad.transducer, *bad.din, *bad.dout,
                                     r2->counterexample))
        << ToTermString(r2->counterexample, *bad.alphabet);
  }
}

TEST(TracTest, WidthFamilies) {
  for (int c = 1; c <= 3; ++c) {
    for (int k = 0; k <= 2; ++k) {
      PaperExample ex = WidthFamily(c, k);
      StatusOr<TypecheckResult> r =
          TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
      ASSERT_TRUE(r.ok()) << c << "," << k << ": " << r.status().ToString();
      EXPECT_TRUE(r->typechecks) << c << "," << k;
    }
  }
}

TEST(TracTest, DeepCounterexampleThroughDeletion) {
  // Require at least 4 titles: only documents with nested sections comply;
  // the typechecker must find a counterexample with few sections.
  PaperExample ex = FilterFamily(1);
  Status s = ex.dout->SetRule("root", "title title title title title*");
  ASSERT_TRUE(s.ok());
  StatusOr<TypecheckResult> r =
      TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->typechecks);
  EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                   r->counterexample));
}

// Property sweep: on random small instances, whenever the engine reports a
// counterexample it must verify, and whenever it reports success the
// bounded-exhaustive oracle must find no counterexample. Parameter i checks
// the first tractable instance among seeds i, i + 60, i + 120, ..., so every
// one of the 60 cases checks an instance.
constexpr int kTracSweepCases = 60;
constexpr int kTracSweepTries = 16;

class TracRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(TracRandomTest, AgreesWithBruteForceOracle) {
  RandomOptions opts;
  opts.num_symbols = 3;
  opts.num_states = 3;
  std::optional<PaperExample> found;
  for (int attempt = 0; attempt < kTracSweepTries && !found; ++attempt) {
    PaperExample ex = RandomInstance(
        static_cast<std::uint32_t>(GetParam() + attempt * kTracSweepCases),
        opts, false);
    WidthAnalysis w = AnalyzeWidths(*ex.transducer);
    if (w.dpw_bounded && w.copying_width * w.deletion_path_width <= 6) {
      found = std::move(ex);
    }
  }
  ASSERT_TRUE(found.has_value())
      << "no tractable instance in " << kTracSweepTries << " seeds";
  const PaperExample& ex = *found;
  TypecheckOptions topts;
  StatusOr<TypecheckResult> r =
      TypecheckTrac(*ex.transducer, *ex.din, *ex.dout, topts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  if (!r->typechecks) {
    ASSERT_NE(r->counterexample, nullptr);
    EXPECT_TRUE(VerifyCounterexample(*ex.transducer, *ex.din, *ex.dout,
                                     r->counterexample))
        << ToTermString(r->counterexample, *ex.alphabet);
  } else {
    BruteForceOptions bf;
    bf.max_depth = 4;
    bf.max_width = 3;
    bf.max_trees = 30000;
    StatusOr<TypecheckResult> brute =
        TypecheckBruteForce(*ex.transducer, *ex.din, *ex.dout, bf);
    ASSERT_TRUE(brute.ok());
    EXPECT_TRUE(brute->typechecks)
        << "missed counterexample "
        << ToTermString(brute->counterexample, *ex.alphabet);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TracRandomTest,
                         ::testing::Range(0, kTracSweepCases));

TEST(TracTest, StatsAreReported) {
  PaperExample ex = MakeBookExample(true);
  StatusOr<TypecheckResult> r =
      TypecheckTrac(*ex.transducer, *ex.din, *ex.dout);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.configs, 0u);
  EXPECT_GT(r->stats.evaluations, 0u);

  // The fixpoint is pinned exactly: the configurations it mints, the
  // evaluations it runs, the product states it explores and the
  // counterexample it rebuilds. A change to the engine's bookkeeping must
  // leave all four as they are.
  struct Golden {
    const char* name;
    PaperExample ex;
    bool determinize;
    std::uint64_t configs;
    std::uint64_t evaluations;
    std::uint64_t product_states;
    const char* counterexample;  // nullptr: the instance typechecks
  };
  const Golden goldens[] = {
      {"width(4,4)", WidthFamily(4, 4), false, 61, 116, 818, nullptr},
      {"replus(6)", RePlusCopyFamily(6), false, 12, 16, 1703, nullptr},
      {"failing(6)", FailingFilterFamily(6), false, 41, 80, 140,
       "root(sec0(title))"},
      {"nfa(6)", NfaSchemaFamily(6), true, 8455, 8462, 198, nullptr},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.name);
    const Dtd* din = g.ex.din.get();
    const Dtd* dout = g.ex.dout.get();
    std::optional<Dtd> din_dfa;
    std::optional<Dtd> dout_dfa;
    if (g.determinize) {
      StatusOr<Dtd> d1 = DeterminizeDtd(*din, 1 << 16);
      StatusOr<Dtd> d2 = DeterminizeDtd(*dout, 1 << 16);
      ASSERT_TRUE(d1.ok() && d2.ok());
      din = &din_dfa.emplace(std::move(*d1));
      dout = &dout_dfa.emplace(std::move(*d2));
    }
    StatusOr<TypecheckResult> gr = TypecheckTrac(*g.ex.transducer, *din, *dout);
    ASSERT_TRUE(gr.ok()) << gr.status().ToString();
    EXPECT_EQ(gr->stats.configs, g.configs);
    EXPECT_EQ(gr->stats.evaluations, g.evaluations);
    EXPECT_EQ(gr->stats.product_states, g.product_states);
    EXPECT_EQ(gr->typechecks, g.counterexample == nullptr);
    if (g.counterexample == nullptr) {
      EXPECT_EQ(gr->counterexample, nullptr);
    } else {
      ASSERT_NE(gr->counterexample, nullptr);
      EXPECT_EQ(ToTermString(gr->counterexample, *g.ex.alphabet),
                g.counterexample);
    }
  }
}

}  // namespace
}  // namespace xtc
