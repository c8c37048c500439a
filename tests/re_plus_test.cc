#include "src/schema/re_plus.h"

#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace xtc {
namespace {

RePlus Parse(Alphabet* alphabet, const char* text) {
  StatusOr<RePlus> re = RePlus::Parse(text, alphabet);
  EXPECT_TRUE(re.ok()) << re.status().ToString();
  return *re;
}

TEST(RePlusTest, ParsesValidShapes) {
  Alphabet alphabet;
  RePlus re = Parse(&alphabet, "title author+ chapter+");
  ASSERT_EQ(re.factors().size(), 3u);
  EXPECT_FALSE(re.factors()[0].plus);
  EXPECT_TRUE(re.factors()[1].plus);
  EXPECT_TRUE(re.factors()[2].plus);
}

TEST(RePlusTest, EpsilonFactorsDropped) {
  Alphabet alphabet;
  RePlus re = Parse(&alphabet, "% a % b+ %");
  EXPECT_EQ(re.factors().size(), 2u);
}

TEST(RePlusTest, RejectsNonRePlusShapes) {
  Alphabet alphabet;
  EXPECT_FALSE(RePlus::Parse("a*", &alphabet).ok());
  EXPECT_FALSE(RePlus::Parse("a | b", &alphabet).ok());
  EXPECT_FALSE(RePlus::Parse("(a b)+", &alphabet).ok());
  EXPECT_FALSE(RePlus::Parse("a?", &alphabet).ok());
}

TEST(RePlusTest, NormalizationMergesAdjacentFactors) {
  Alphabet alphabet;
  // a a+ a b → a^{>=3} b^{=1}.
  RePlus re = Parse(&alphabet, "a a+ a b");
  std::vector<RePlus::NormFactor> norm = re.Normalized();
  ASSERT_EQ(norm.size(), 2u);
  EXPECT_EQ(norm[0].min_count, 3);
  EXPECT_TRUE(norm[0].unbounded);
  EXPECT_EQ(norm[1].min_count, 1);
  EXPECT_FALSE(norm[1].unbounded);
}

TEST(RePlusTest, MinAndVastStrings) {
  Alphabet alphabet;
  RePlus re = Parse(&alphabet, "a b+ c");
  int a = *alphabet.Find("a");
  int b = *alphabet.Find("b");
  int c = *alphabet.Find("c");
  EXPECT_EQ(re.MinString(), (std::vector<int>{a, b, c}));
  EXPECT_EQ(re.VastString(), (std::vector<int>{a, b, b, c}));
}

TEST(RePlusTest, MatchesAgainstDfaAgree) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  alphabet.Intern("c");
  for (const char* pattern : {"a b+ c+", "a+ b a+", "a a a", "b+", "%"}) {
    RePlus re = Parse(&alphabet, pattern);
    Dfa dfa = re.ToDfa(alphabet.size());
    // Exhaustive words up to length 4 over 3 symbols.
    std::vector<std::vector<int>> words{{}};
    for (int len = 1; len <= 4; ++len) {
      std::size_t start = words.size();
      (void)start;
      std::vector<std::vector<int>> next;
      for (const auto& w : words) {
        if (static_cast<int>(w.size()) != len - 1) continue;
        for (int s = 0; s < 3; ++s) {
          std::vector<int> w2 = w;
          w2.push_back(s);
          next.push_back(w2);
        }
      }
      words.insert(words.end(), next.begin(), next.end());
    }
    for (const auto& w : words) {
      EXPECT_EQ(re.Matches(w), dfa.Accepts(w)) << pattern;
    }
  }
}

struct InclusionCase {
  const char* lhs;
  const char* rhs;
  bool included;
};

// Names each case by its two expressions; the default byte dump would print
// their addresses, which change from run to run.
void PrintTo(const InclusionCase& c, std::ostream* os) {
  *os << c.lhs << " vs " << c.rhs;
}

class RePlusInclusionTest : public ::testing::TestWithParam<InclusionCase> {};

TEST_P(RePlusInclusionTest, SyntacticAgreesWithAutomata) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  alphabet.Intern("c");
  RePlus lhs = Parse(&alphabet, GetParam().lhs);
  RePlus rhs = Parse(&alphabet, GetParam().rhs);
  EXPECT_EQ(lhs.IncludedIn(rhs), GetParam().included);
  // Cross-check by DFA inclusion.
  Dfa dl = lhs.ToDfa(alphabet.size());
  Dfa dr = rhs.ToDfa(alphabet.size());
  EXPECT_EQ(dl.IncludedIn(dr), GetParam().included)
      << GetParam().lhs << " vs " << GetParam().rhs;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RePlusInclusionTest,
    ::testing::Values(InclusionCase{"a b", "a b", true},
                      InclusionCase{"a b", "a b+", true},
                      InclusionCase{"a b+", "a b", false},
                      InclusionCase{"a+ b", "a+ b+", true},
                      InclusionCase{"a a+", "a+", true},
                      InclusionCase{"a+", "a a+", false},
                      InclusionCase{"a b c", "a b+ c", true},
                      InclusionCase{"a c", "a b+ c", false},
                      InclusionCase{"%", "a+", false},
                      InclusionCase{"%", "%", true},
                      InclusionCase{"a+ a+", "a a+", true},
                      InclusionCase{"a+ b a+", "a+ b+ a+", true},
                      InclusionCase{"a+ b+ a+", "a+ b a+", false}));

TEST(RePlusTest, EquivalenceViaNormalForm) {
  Alphabet alphabet;
  RePlus x = Parse(&alphabet, "a a+ b");
  RePlus y = Parse(&alphabet, "a+ a b");
  EXPECT_TRUE(x.EquivalentTo(y));
  RePlus z = Parse(&alphabet, "a+ b");
  EXPECT_FALSE(x.EquivalentTo(z));
}

TEST(RePlusTest, IntersectionEmptinessAgainstProduct) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  struct Group {
    std::vector<const char*> exprs;
    bool empty;
  };
  std::vector<Group> groups{
      {{"a+ b", "a a+ b"}, false},   // a a b works
      {{"a b", "a a"}, true},        // different block structure
      {{"a+", "a a a"}, false},      // a^3
      {{"a b+", "a+ b"}, false},     // a b
      {{"a a", "a a a+"}, true},     // 2 vs >=3
      {{"%", "a"}, true},
      {{"%", "%"}, false},
  };
  for (const Group& g : groups) {
    std::vector<RePlus> exprs;
    for (const char* e : g.exprs) exprs.push_back(Parse(&alphabet, e));
    EXPECT_EQ(RePlus::IntersectionEmpty(exprs), g.empty) << g.exprs[0];
    // Cross-check with DFA products.
    Dfa acc = exprs[0].ToDfa(alphabet.size());
    for (std::size_t i = 1; i < exprs.size(); ++i) {
      acc = Dfa::Product(acc, exprs[i].ToDfa(alphabet.size()),
                         Dfa::BoolOp::kAnd);
    }
    EXPECT_EQ(acc.IsEmpty(), g.empty) << g.exprs[0];
  }
}

TEST(RePlusTest, ToStringRoundTrip) {
  Alphabet alphabet;
  RePlus re = Parse(&alphabet, "title author+ chapter+");
  EXPECT_EQ(re.ToString(alphabet), "title author+ chapter+");
  RePlus eps = Parse(&alphabet, "%");
  EXPECT_EQ(eps.ToString(alphabet), "%");
}

}  // namespace
}  // namespace xtc
