#include "src/align/seed_extend.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/align/inexact_search.h"
#include "src/genome/synthetic_genome.h"
#include "src/util/rng.h"

namespace pim::align {
namespace {

using genome::Base;
using genome::PackedSequence;

struct Fixture {
  PackedSequence reference;
  index::FmIndex fm;
  explicit Fixture(std::size_t length = 200000, std::uint64_t seed = 9) {
    genome::SyntheticGenomeSpec spec;
    spec.length = length;
    spec.seed = seed;
    reference = genome::generate_reference(spec);
    fm = index::FmIndex::build(reference, {.bucket_width = 128});
  }
};

std::vector<Base> mutate_read(std::vector<Base> read, int substitutions,
                              int deletions, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  for (int s = 0; s < substitutions; ++s) {
    const std::size_t pos = rng.bounded(read.size());
    read[pos] = static_cast<Base>((static_cast<int>(read[pos]) + 1) % 4);
  }
  for (int d = 0; d < deletions && read.size() > 1; ++d) {
    read.erase(read.begin() + static_cast<long>(rng.bounded(read.size())));
  }
  return read;
}

TEST(SeedExtend, PerfectLongReadFound) {
  Fixture f;
  const auto read = f.reference.slice(50000, 51000);
  const auto result = seed_extend_align(f.fm, read);
  ASSERT_TRUE(result.found());
  EXPECT_EQ(result.seeds_total, 50U);
  EXPECT_EQ(result.seeds_matched, result.seeds_total);
  // Best hit covers the true origin (window includes the pad).
  EXPECT_NEAR(static_cast<double>(result.hits[0].ref_begin), 50000.0, 40.0);
  // Perfect read: full-length match score.
  EXPECT_EQ(result.hits[0].score, 2000);
}

TEST(SeedExtend, DivergedLongReadFoundWhereBacktrackingFails) {
  Fixture f;
  // 1 kb read with 6 substitutions (~0.6% divergence): far beyond z=2.
  const auto read =
      mutate_read(f.reference.slice(120000, 121000), 6, 0, 77);
  InexactOptions z2;
  z2.max_diffs = 2;
  z2.max_states = 200000;
  EXPECT_FALSE(inexact_search(f.fm, read, z2).found());

  const auto result = seed_extend_align(f.fm, read);
  ASSERT_TRUE(result.found());
  EXPECT_NEAR(static_cast<double>(result.hits[0].ref_begin), 120000.0, 40.0);
  // 994 matches * 2 - 6 mismatches * 1 (at worst) within banding slack.
  EXPECT_GT(result.hits[0].score, 1900);
}

TEST(SeedExtend, HandlesIndels) {
  Fixture f;
  const auto read = mutate_read(f.reference.slice(80000, 80800), 2, 3, 13);
  const auto result = seed_extend_align(f.fm, read);
  ASSERT_TRUE(result.found());
  EXPECT_NEAR(static_cast<double>(result.hits[0].ref_begin), 80000.0, 64.0);
  EXPECT_GT(result.hits[0].score, 1400);
}

TEST(SeedExtend, RandomReadNotFound) {
  Fixture f(50000, 3);
  util::Xoshiro256 rng(5);
  std::vector<Base> read;
  for (int i = 0; i < 500; ++i) read.push_back(static_cast<Base>(rng.bounded(4)));
  const auto result = seed_extend_align(f.fm, read);
  EXPECT_FALSE(result.found());
  EXPECT_EQ(result.candidates_tried, 0U);
}

TEST(SeedExtend, ShortReadReturnsEmpty) {
  Fixture f(20000, 4);
  SeedExtendOptions opt;
  opt.seed_length = 20;
  const auto result =
      seed_extend_align(f.fm, f.reference.slice(0, 10), opt);
  EXPECT_FALSE(result.found());
  EXPECT_EQ(result.seeds_total, 0U);
}

TEST(SeedExtend, RepeatSeedsSkipped) {
  // A reference of pure repeats: every seed has a huge interval and is
  // discarded; with max_seed_hits raised the read is found again.
  PackedSequence reference;
  for (int i = 0; i < 3000; ++i) {
    reference.push_back(static_cast<Base>(i % 4));
  }
  const auto fm = index::FmIndex::build(reference, {.bucket_width = 128});
  const auto read = reference.slice(1000, 1200);
  SeedExtendOptions strict;
  strict.max_seed_hits = 4;
  const auto none = seed_extend_align(fm, read, strict);
  EXPECT_EQ(none.seeds_matched, 0U);
  SeedExtendOptions loose;
  loose.max_seed_hits = 4000;
  loose.max_candidates = 32;
  const auto found = seed_extend_align(fm, read, loose);
  EXPECT_TRUE(found.found());
}

TEST(SeedExtend, VoteThresholdFiltersNoise) {
  Fixture f(100000, 6);
  const auto read = f.reference.slice(30000, 30400);
  SeedExtendOptions opt;
  opt.min_votes = 3;
  const auto result = seed_extend_align(f.fm, read, opt);
  ASSERT_TRUE(result.found());
  for (const auto& hit : result.hits) {
    EXPECT_GE(hit.votes, 3U);
  }
}

TEST(SeedExtend, BadArgsThrow) {
  Fixture f(20000, 7);
  SeedExtendOptions opt;
  opt.seed_length = 0;
  EXPECT_THROW(
      seed_extend_align(f.fm, f.reference.slice(0, 100), opt),
      std::invalid_argument);
}

TEST(SeedExtend, WfaKernelPlacesReadsLikeBandedSw) {
  // The S44 seam: the same seeding/voting, verification by gap-affine WFA.
  // Placements agree with the banded-SW kernel and both report honest edit
  // counts; WFA touches far fewer DP-cell equivalents.
  Fixture f;
  SeedExtendOptions wfa_opt;
  wfa_opt.kernel = ExtensionKernel::kWfa;
  const auto read = mutate_read(f.reference.slice(120000, 121000), 6, 0, 77);

  const auto sw = seed_extend_align(f.fm, read);
  const auto wf = seed_extend_align(f.fm, read, wfa_opt);
  ASSERT_TRUE(sw.found());
  ASSERT_TRUE(wf.found());
  EXPECT_EQ(wf.hits[0].ref_begin, sw.hits[0].ref_begin);
  EXPECT_EQ(wf.hits[0].edits, 6U);
  EXPECT_EQ(sw.hits[0].edits, 6U);
  // Same alignment, same SW-scale score (the cigar_sw_score bridge).
  EXPECT_EQ(wf.hits[0].score, sw.hits[0].score);
  EXPECT_GT(wf.wfa.wavefronts, 0U);
  EXPECT_GT(wf.wfa.compare_bases, 0U);
  EXPECT_EQ(sw.wfa.wavefronts, 0U);  // banded pass charges no WFA work
  EXPECT_GT(sw.extension_cells, 0U);
  // Repeat-rich fixture (7 of 8 candidates are spurious paralog chains):
  // the best-informed score cap keeps even those cheap, so WFA still does
  // a fraction of the banded DP work.
  EXPECT_LT(wf.extension_cells, sw.extension_cells / 3);
}

TEST(SeedExtend, WfaKernelHandlesIndels) {
  Fixture f;
  SeedExtendOptions wfa_opt;
  wfa_opt.kernel = ExtensionKernel::kWfa;
  const auto read = mutate_read(f.reference.slice(80000, 80800), 2, 3, 13);
  const auto result = seed_extend_align(f.fm, read, wfa_opt);
  ASSERT_TRUE(result.found());
  EXPECT_NEAR(static_cast<double>(result.hits[0].ref_begin), 80000.0, 64.0);
  EXPECT_GT(result.hits[0].score, 1400);
  // 2 substitutions + 3 single-base deletions = 5 edits exactly.
  EXPECT_EQ(result.hits[0].edits, 5U);
}

TEST(SeedExtend, PerfectReadHasZeroEdits) {
  Fixture f;
  const auto read = f.reference.slice(50000, 51000);
  for (const ExtensionKernel kernel :
       {ExtensionKernel::kBandedSw, ExtensionKernel::kWfa}) {
    SeedExtendOptions opt;
    opt.kernel = kernel;
    const auto result = seed_extend_align(f.fm, read, opt);
    ASSERT_TRUE(result.found());
    EXPECT_EQ(result.hits[0].ref_begin, 50000U) << to_string(kernel);
    EXPECT_EQ(result.hits[0].edits, 0U) << to_string(kernel);
    EXPECT_EQ(result.hits[0].score, 2000) << to_string(kernel);
  }
}

TEST(SeedExtend, HitsSortedByScore) {
  Fixture f(150000, 8);
  const auto read = f.reference.slice(10000, 10500);
  SeedExtendOptions opt;
  opt.min_votes = 1;
  opt.max_candidates = 16;
  const auto result = seed_extend_align(f.fm, read, opt);
  ASSERT_TRUE(result.found());
  for (std::size_t i = 1; i < result.hits.size(); ++i) {
    EXPECT_GE(result.hits[i - 1].score, result.hits[i].score);
  }
}

}  // namespace
}  // namespace pim::align
