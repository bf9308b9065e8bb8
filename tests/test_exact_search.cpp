#include "src/align/backward_search.h"

#include <gtest/gtest.h>

#include <string>

#include "src/align/naive_search.h"
#include "src/genome/synthetic_genome.h"
#include "src/util/rng.h"

namespace pim::align {
namespace {

using genome::Base;
using genome::PackedSequence;

TEST(ExactSearch, PaperExampleCtaInTgcta) {
  const PackedSequence text("TGCTA");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 2});
  const ExactResult result = exact_search(fm, genome::encode("CTA"));
  EXPECT_TRUE(result.found());
  EXPECT_EQ(result.occurrence_count(), 1U);
  EXPECT_EQ(result.steps, 3U);
  const auto positions = exact_locate(fm, genome::encode("CTA"));
  const std::vector<std::uint64_t> expect = {2};
  EXPECT_EQ(positions, expect);
}

TEST(ExactSearch, MissingPatternFails) {
  const PackedSequence text("TGCTA");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 2});
  const ExactResult result = exact_search(fm, genome::encode("AAA"));
  EXPECT_FALSE(result.found());
  EXPECT_TRUE(exact_locate(fm, genome::encode("AAA")).empty());
}

TEST(ExactSearch, EarlyExitOnCollapse) {
  const PackedSequence text("CCCCCCCC");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 4});
  // Rightmost char G kills the interval immediately; remaining steps skipped.
  const ExactResult result = exact_search(fm, genome::encode("CCCCCCG"));
  EXPECT_FALSE(result.found());
  EXPECT_EQ(result.steps, 1U);
}

TEST(ExactSearch, EmptyReadMatchesEverywhere) {
  const PackedSequence text("ACGT");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 2});
  const ExactResult result = exact_search(fm, {});
  EXPECT_TRUE(result.found());
  EXPECT_EQ(result.interval, fm.whole_interval());
  EXPECT_EQ(result.steps, 0U);
}

TEST(ExactSearch, WholeReferenceAsRead) {
  const PackedSequence text("GATTACAGATTACA");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 4});
  const auto positions = exact_locate(fm, text.unpack());
  const std::vector<std::uint64_t> expect = {0};
  EXPECT_EQ(positions, expect);
}

TEST(ExactSearch, OverlappingOccurrences) {
  const PackedSequence text("AAAAA");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 2});
  const auto positions = exact_locate(fm, genome::encode("AA"));
  const std::vector<std::uint64_t> expect = {0, 1, 2, 3};
  EXPECT_EQ(positions, expect);
}

TEST(ExactSearch, TraceMatchesStepCount) {
  const PackedSequence text("TGCTA");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 2});
  const auto trace = exact_search_trace(fm, genome::encode("CTA"));
  ASSERT_EQ(trace.size(), 3U);
  EXPECT_TRUE(trace.back().valid());
  // Intervals shrink monotonically along the trace.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i].count(), trace[i - 1].count());
  }
}

// Property: FM-index exact search equals brute-force scanning for random
// references and reads (planted and random), across bucket widths.
// Both fields are 64-bit so the struct has no padding: the test names print
// the param's raw bytes, and uninitialised padding made them vary by build.
struct ExactParam {
  std::uint64_t bucket;
  std::uint64_t seed;
};

class ExactSearchProperty : public ::testing::TestWithParam<ExactParam> {};

TEST_P(ExactSearchProperty, MatchesNaiveScan) {
  const auto [bucket, seed] = GetParam();
  genome::SyntheticGenomeSpec spec;
  spec.length = 3000;
  spec.seed = seed;
  spec.repeat_fraction = 0.5;
  spec.repeat_unit_length = 60;
  const PackedSequence text = genome::generate_reference(spec);
  const auto fm = index::FmIndex::build(
      text, {.bucket_width = static_cast<std::uint32_t>(bucket)});
  util::Xoshiro256 rng(seed + 1000);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Base> read;
    if (trial % 2 == 0) {
      // Planted read: guaranteed to occur.
      const std::size_t len = 8 + rng.bounded(40);
      const std::size_t start = rng.bounded(text.size() - len);
      read = text.slice(start, start + len);
    } else {
      // Random read: usually absent.
      const std::size_t len = 8 + rng.bounded(20);
      for (std::size_t i = 0; i < len; ++i) {
        read.push_back(static_cast<Base>(rng.bounded(4)));
      }
    }
    EXPECT_EQ(exact_locate(fm, read), naive_exact_positions(text, read))
        << "bucket=" << bucket << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactSearchProperty,
    ::testing::Values(ExactParam{1, 1}, ExactParam{16, 2}, ExactParam{64, 3},
                      ExactParam{128, 4}, ExactParam{128, 5}));

}  // namespace
}  // namespace pim::align
