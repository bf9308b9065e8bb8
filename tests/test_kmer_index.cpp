#include "src/align/kmer_index.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/align/seed_extend.h"
#include "src/genome/synthetic_genome.h"
#include "src/util/rng.h"
#include "tests/support/naive_search.h"

namespace pim::align {
namespace {

using genome::Base;
using genome::PackedSequence;

TEST(KmerIndex, BuildValidation) {
  const auto reference = genome::generate_uniform(100, 1);
  EXPECT_THROW(KmerIndex::build(reference, 0), std::invalid_argument);
  EXPECT_THROW(KmerIndex::build(reference, 14), std::invalid_argument);
  EXPECT_THROW(KmerIndex::build(genome::PackedSequence("ACG"), 8),
               std::invalid_argument);
  EXPECT_NO_THROW(KmerIndex::build(reference, 8));
}

TEST(KmerIndex, LookupSmallExample) {
  const PackedSequence reference("ACGTACGTAC");
  const auto index = KmerIndex::build(reference, 4);
  const std::vector<std::uint64_t> acgt = {0, 4};
  EXPECT_EQ(index.lookup(genome::encode("ACGT")), acgt);
  EXPECT_EQ(index.count(genome::encode("ACGT")), 2U);
  const std::vector<std::uint64_t> cgta = {1, 5};
  EXPECT_EQ(index.lookup(genome::encode("CGTA")), cgta);
  EXPECT_TRUE(index.lookup(genome::encode("TTTT")).empty());
  EXPECT_THROW(index.lookup(genome::encode("ACG")), std::invalid_argument);
}

// Property: lookups match the brute-force scan for every sampled k-mer.
class KmerProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KmerProperty, MatchesNaiveScan) {
  const std::uint32_t k = GetParam();
  genome::SyntheticGenomeSpec spec;
  spec.length = 3000;
  spec.seed = 100 + k;
  spec.repeat_fraction = 0.5;
  const auto reference = genome::generate_reference(spec);
  const auto index = KmerIndex::build(reference, k);
  util::Xoshiro256 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Base> seed;
    if (trial % 2 == 0) {
      const std::size_t start = rng.bounded(reference.size() - k);
      seed = reference.slice(start, start + k);
    } else {
      for (std::uint32_t i = 0; i < k; ++i) {
        seed.push_back(static_cast<Base>(rng.bounded(4)));
      }
    }
    EXPECT_EQ(index.lookup(seed), naive_exact_positions(reference, seed))
        << "k=" << k << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KmerProperty, ::testing::Values(4U, 8U, 11U, 13U));

TEST(KmerIndex, SearcherAdapterDrivesSeedExtend) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 100000;
  spec.seed = 9;
  const auto reference = genome::generate_reference(spec);
  const auto kmer = KmerIndex::build(reference, 12);
  const auto fm = index::FmIndex::build(reference, {.bucket_width = 128});

  SeedExtendOptions opt;
  opt.seed_length = 12;  // must equal k for the k-mer substrate
  util::Xoshiro256 rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t start = rng.bounded(reference.size() - 600);
    auto read = reference.slice(start, start + 600);
    read[100] = static_cast<Base>((static_cast<int>(read[100]) + 1) % 4);
    read[450] = static_cast<Base>((static_cast<int>(read[450]) + 2) % 4);
    const auto via_kmer = seed_extend_core(kmer, reference, read, opt);
    const auto via_fm = seed_extend_align(fm, read, opt);
    ASSERT_EQ(via_kmer.hits.size(), via_fm.hits.size()) << trial;
    for (std::size_t h = 0; h < via_fm.hits.size(); ++h) {
      EXPECT_EQ(via_kmer.hits[h].ref_begin, via_fm.hits[h].ref_begin);
      EXPECT_EQ(via_kmer.hits[h].score, via_fm.hits[h].score);
    }
  }
}

TEST(KmerIndex, WrongSeedLengthIsNotFoundInAdapter) {
  const auto reference = genome::generate_uniform(1000, 3);
  const auto index = KmerIndex::build(reference, 12);
  const auto result = index.search(genome::encode("ACGTACGT"));  // len 8
  EXPECT_FALSE(result.found());
}

TEST(KmerIndex, MemoryScalesWithBucketCount) {
  const auto reference = genome::generate_uniform(5000, 5);
  const auto small_k = KmerIndex::build(reference, 8);
  const auto large_k = KmerIndex::build(reference, 12);
  // 4^12 buckets dwarf 4^8: the k-mer table's memory/flexibility trade
  // versus the FM-index.
  EXPECT_GT(large_k.memory_bytes(), small_k.memory_bytes() * 10);
}

}  // namespace
}  // namespace pim::align
