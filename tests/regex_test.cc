#include "src/fa/regex.h"

#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fa/dfa.h"

namespace xtc {
namespace {

struct Case {
  const char* pattern;
  std::vector<std::vector<int>> accepted;
  std::vector<std::vector<int>> rejected;
};

// Names each case by its pattern; the default byte dump would print the
// pattern's address, which changes from run to run.
void PrintTo(const Case& c, std::ostream* os) { *os << c.pattern; }

class RegexLanguageTest : public ::testing::TestWithParam<Case> {};

TEST_P(RegexLanguageTest, GlushkovMatchesExpectedWords) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  alphabet.Intern("c");
  StatusOr<RegexPtr> re = ParseRegex(GetParam().pattern, &alphabet);
  ASSERT_TRUE(re.ok()) << re.status().ToString();
  Nfa nfa = RegexToNfa(**re, 3);
  for (const auto& w : GetParam().accepted) {
    EXPECT_TRUE(nfa.Accepts(w)) << GetParam().pattern;
  }
  for (const auto& w : GetParam().rejected) {
    EXPECT_FALSE(nfa.Accepts(w)) << GetParam().pattern;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RegexLanguageTest,
    ::testing::Values(
        Case{"a", {{0}}, {{}, {1}, {0, 0}}},
        Case{"%", {{}}, {{0}}},
        Case{"a b c", {{0, 1, 2}}, {{0, 1}, {0, 2, 1}}},
        Case{"a | b", {{0}, {1}}, {{2}, {}}},
        Case{"a*", {{}, {0}, {0, 0, 0}}, {{1}}},
        Case{"a+", {{0}, {0, 0}}, {{}, {1}}},
        Case{"a?", {{}, {0}}, {{0, 0}}},
        Case{"(a | b)* c", {{2}, {0, 2}, {1, 0, 2}}, {{0}, {2, 2}}},
        Case{"a (b | %) a", {{0, 0}, {0, 1, 0}}, {{0, 1, 1, 0}}},
        Case{"(a b)+ | c", {{0, 1}, {0, 1, 0, 1}, {2}}, {{}, {0}, {0, 1, 2}}},
        // The paper's book DTD rule shape.
        Case{"a b+ c+", {{0, 1, 2}, {0, 1, 1, 2, 2}}, {{0, 2}, {1, 2}}}));

TEST(RegexTest, ParseErrors) {
  Alphabet alphabet;
  EXPECT_FALSE(ParseRegex("(a", &alphabet).ok());
  EXPECT_FALSE(ParseRegex("a)", &alphabet).ok());
  EXPECT_FALSE(ParseRegex("*", &alphabet).ok());
}

TEST(RegexTest, RoundTripThroughToString) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  for (const char* pattern :
       {"a b+ c+", "(a | b)* c", "a (b | %) a", "a? b*"}) {
    StatusOr<RegexPtr> re = ParseRegex(pattern, &alphabet);
    ASSERT_TRUE(re.ok());
    std::string printed = RegexToString(**re, alphabet);
    StatusOr<RegexPtr> re2 = ParseRegex(printed, &alphabet);
    ASSERT_TRUE(re2.ok()) << printed;
    // Language equality via subset construction.
    Dfa d1 = Dfa::FromNfa(RegexToNfa(**re, alphabet.size()));
    Dfa d2 = Dfa::FromNfa(RegexToNfa(**re2, alphabet.size()));
    EXPECT_TRUE(d1.EquivalentTo(d2)) << pattern << " vs " << printed;
  }
}

TEST(RegexTest, OneUnambiguousDetection) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  auto check = [&](const char* pattern) {
    StatusOr<RegexPtr> re = ParseRegex(pattern, &alphabet);
    EXPECT_TRUE(re.ok());
    return RegexIsOneUnambiguous(**re, alphabet.size());
  };
  EXPECT_TRUE(check("a b+"));
  EXPECT_TRUE(check("(a|b)*"));
  // The classic non-one-unambiguous expression (a|b)* a.
  EXPECT_FALSE(check("(a|b)* a"));
}

TEST(RegexTest, EmptySetBehaves) {
  RegexPtr empty = Regex::EmptySet();
  Nfa n = RegexToNfa(*empty, 2);
  EXPECT_TRUE(n.IsEmpty());
  // Concatenation with the empty set is empty.
  Nfa n2 = RegexToNfa(*Regex::Concat({Regex::Sym(0), empty}), 2);
  EXPECT_TRUE(n2.IsEmpty());
  // Star of the empty set is {epsilon}.
  Nfa n3 = RegexToNfa(*Regex::Star(empty), 2);
  EXPECT_TRUE(n3.Accepts(std::vector<int>{}));
  EXPECT_FALSE(n3.Accepts(std::vector<int>{0}));
}

TEST(RegexTest, SizeAndSymbols) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  alphabet.Intern("c");
  StatusOr<RegexPtr> re = ParseRegex("a b+ | c", &alphabet);
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(RegexSize(**re), 6);  // alt, concat, a, plus, b, c
  std::vector<bool> used(3, false);
  RegexSymbols(**re, &used);
  EXPECT_TRUE(used[0]);
  EXPECT_TRUE(used[1]);
  EXPECT_TRUE(used[2]);
}

}  // namespace
}  // namespace xtc
