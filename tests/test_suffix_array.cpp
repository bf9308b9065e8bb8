#include "src/index/suffix_array.h"

#include <gtest/gtest.h>

#include <string>

#include "src/genome/synthetic_genome.h"
#include "src/util/rng.h"
#include "tests/support/suffix_array_oracle.h"

namespace pim::index {
namespace {

using genome::PackedSequence;

TEST(SuffixArray, PaperWorkedExample) {
  // S = TGCTA (Fig. 1): suffixes of TGCTA$ sort as
  // $ | A$ | CTA$ | GCTA$ | TA$ | TGCTA$ -> SA = [5,4,2,1,3,0].
  const PackedSequence text("TGCTA");
  const SuffixArray sa = build_suffix_array(text);
  const SuffixArray expect = {5, 4, 2, 1, 3, 0};
  EXPECT_EQ(sa, expect);
}

TEST(SuffixArray, EmptyText) {
  const PackedSequence text("");
  const SuffixArray sa = build_suffix_array(text);
  ASSERT_EQ(sa.size(), 1U);
  EXPECT_EQ(sa[0], 0U);
}

TEST(SuffixArray, SingleCharacter) {
  const PackedSequence text("G");
  const SuffixArray sa = build_suffix_array(text);
  const SuffixArray expect = {1, 0};
  EXPECT_EQ(sa, expect);
}

TEST(SuffixArray, AllSameCharacter) {
  // Degenerate repeat: AAAA$ -> $ < A$ < AA$ < AAA$ < AAAA$.
  const PackedSequence text("AAAA");
  const SuffixArray sa = build_suffix_array(text);
  const SuffixArray expect = {4, 3, 2, 1, 0};
  EXPECT_EQ(sa, expect);
}

TEST(SuffixArray, MatchesNaiveOnFixedStrings) {
  for (const std::string s :
       {"A", "AC", "CA", "ACGT", "TTTTACGT", "GATTACA", "ATATATAT",
        "CCCCCCCCCC", "ACGTACGTACGTACGT", "TGCTATGCTA"}) {
    const PackedSequence text(s);
    EXPECT_EQ(build_suffix_array(text), build_suffix_array_naive(text))
        << "text=" << s;
  }
}

// Property sweep: SA-IS equals the naive oracle on random strings of many
// lengths and repeat structures.
class SuffixArrayProperty : public ::testing::TestWithParam<int> {};

TEST_P(SuffixArrayProperty, MatchesNaiveOnRandomText) {
  const int seed = GetParam();
  pim::util::Xoshiro256 rng(static_cast<std::uint64_t>(seed));
  const std::size_t length = 1 + rng.bounded(400);
  genome::SyntheticGenomeSpec spec;
  spec.length = length;
  spec.seed = static_cast<std::uint64_t>(seed) * 977 + 1;
  spec.repeat_fraction = (seed % 3 == 0) ? 0.6 : 0.0;
  spec.repeat_unit_length = 17;
  const PackedSequence text = genome::generate_reference(spec);
  const SuffixArray fast = build_suffix_array(text);
  const SuffixArray naive = build_suffix_array_naive(text);
  EXPECT_EQ(fast, naive) << "seed=" << seed << " len=" << length;
  EXPECT_TRUE(is_valid_suffix_array(text, fast));
}

INSTANTIATE_TEST_SUITE_P(RandomTexts, SuffixArrayProperty,
                         ::testing::Range(0, 40));

TEST(SuffixArray, ValidatorRejectsBadArrays) {
  const PackedSequence text("ACGT");
  SuffixArray sa = build_suffix_array(text);
  EXPECT_TRUE(is_valid_suffix_array(text, sa));
  std::swap(sa[0], sa[1]);
  EXPECT_FALSE(is_valid_suffix_array(text, sa));
  sa = build_suffix_array(text);
  sa[0] = sa[1];  // not a permutation
  EXPECT_FALSE(is_valid_suffix_array(text, sa));
  sa = build_suffix_array(text);
  sa.pop_back();  // wrong size
  EXPECT_FALSE(is_valid_suffix_array(text, sa));
}

TEST(SuffixArray, LargeRepeatHeavyText) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 100000;
  spec.repeat_fraction = 0.5;
  spec.seed = 21;
  const PackedSequence text = genome::generate_reference(spec);
  const SuffixArray sa = build_suffix_array(text);
  ASSERT_EQ(sa.size(), text.size() + 1);
  EXPECT_EQ(sa[0], text.size());  // "$" is the smallest suffix
  // Spot-check sortedness at random adjacent pairs.
  pim::util::Xoshiro256 rng(4);
  for (int t = 0; t < 200; ++t) {
    const std::size_t i = rng.bounded(sa.size() - 1);
    std::uint32_t a = sa[i];
    std::uint32_t b = sa[i + 1];
    // Compare suffixes up to 64 characters.
    bool ordered = true;
    for (int k = 0; k < 64; ++k) {
      const bool a_end = a + k >= text.size();
      const bool b_end = b + k >= text.size();
      if (a_end || b_end) {
        ordered = a_end;
        break;
      }
      if (text.at(a + k) != text.at(b + k)) {
        ordered = text.at(a + k) < text.at(b + k);
        break;
      }
    }
    EXPECT_TRUE(ordered) << "adjacent pair at " << i;
  }
}

}  // namespace
}  // namespace pim::index
