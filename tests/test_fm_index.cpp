#include "src/index/fm_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "src/genome/synthetic_genome.h"
#include "src/util/rng.h"

namespace pim::index {
namespace {

using genome::Base;
using genome::PackedSequence;

TEST(SaInterval, Basics) {
  SaInterval valid{2, 5};
  EXPECT_TRUE(valid.valid());
  EXPECT_EQ(valid.count(), 3U);
  SaInterval collapsed{5, 5};
  EXPECT_FALSE(collapsed.valid());
  EXPECT_EQ(collapsed.count(), 0U);
  SaInterval inverted{6, 2};
  EXPECT_FALSE(inverted.valid());
  EXPECT_EQ(inverted.count(), 0U);
}

TEST(FmIndex, BuildSmall) {
  const PackedSequence text("TGCTA");
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 2});
  EXPECT_EQ(fm.reference_size(), 5U);
  EXPECT_EQ(fm.num_rows(), 6U);
  EXPECT_EQ(fm.whole_interval(), (SaInterval{0, 6}));
}

TEST(FmIndex, OccMatchesOracle) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 512;
  spec.seed = 17;
  const PackedSequence text = genome::generate_reference(spec);
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 16});
  const OccTable oracle(fm.bwt());
  for (std::size_t i = 0; i <= fm.num_rows(); ++i) {
    for (const auto nt : genome::kAllBases) {
      ASSERT_EQ(fm.occ(nt, i), oracle.occ(nt, i)) << i;
    }
  }
}

TEST(FmIndex, LocateRecoversSuffixArray) {
  const PackedSequence text("TGCTA");
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 2});
  // SA of TGCTA$ = [5,4,2,1,3,0].
  const std::vector<std::uint64_t> expect = {5, 4, 2, 1, 3, 0};
  for (std::size_t row = 0; row < fm.num_rows(); ++row) {
    EXPECT_EQ(fm.locate(row), expect[row]) << row;
  }
}

// Sampled-SA property: locate() is exact for every row at every rate.
class SampledSaProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SampledSaProperty, LocateMatchesFullSa) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 600;
  spec.seed = 23;
  spec.repeat_fraction = 0.5;
  const PackedSequence text = genome::generate_reference(spec);
  const SuffixArray sa = build_suffix_array(text);
  FmIndexConfig config;
  config.bucket_width = 32;
  config.sa_sample_rate = GetParam();
  const FmIndex fm = FmIndex::build(text, config);
  for (std::size_t row = 0; row < fm.num_rows(); ++row) {
    ASSERT_EQ(fm.locate(row), sa[row])
        << "rate=" << GetParam() << " row=" << row;
  }
}

INSTANTIATE_TEST_SUITE_P(SampleRates, SampledSaProperty,
                         ::testing::Values(1U, 2U, 4U, 8U, 32U));

TEST(FmIndex, ExtendShrinksIntervalsMonotonically) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 2000;
  spec.seed = 29;
  const PackedSequence text = genome::generate_reference(spec);
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 64});
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    SaInterval interval = fm.whole_interval();
    std::uint64_t prev_count = interval.count();
    for (int step = 0; step < 30 && interval.valid(); ++step) {
      interval = fm.extend(interval, static_cast<Base>(rng.bounded(4)));
      EXPECT_LE(interval.count(), prev_count);
      prev_count = interval.count();
    }
  }
}

TEST(FmIndex, LocateAllSortedAndUnique) {
  const PackedSequence text("ACGTACGTACGT");
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 4});
  // Pattern ACGT occurs at 0, 4, 8: get its interval by backward search.
  SaInterval interval = fm.whole_interval();
  for (const char c : {'T', 'G', 'C', 'A'}) {
    interval = fm.extend(interval, *genome::base_from_char(c));
  }
  const auto positions = fm.locate_all(interval);
  const std::vector<std::uint64_t> expect = {0, 4, 8};
  EXPECT_EQ(positions, expect);
  EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
}

TEST(FmIndex, LocateAllOfInvalidIntervalIsEmpty) {
  const PackedSequence text("ACGT");
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 2});
  EXPECT_TRUE(fm.locate_all(SaInterval{3, 3}).empty());
}

TEST(FmIndex, MemoryFootprintAccounts) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 4096;
  spec.seed = 2;
  const PackedSequence text = genome::generate_reference(spec);
  const FmIndex full = FmIndex::build(text, {.bucket_width = 128,
                                             .sa_sample_rate = 1});
  const FmIndex sampled = FmIndex::build(text, {.bucket_width = 128,
                                                .sa_sample_rate = 8});
  const auto fp_full = full.memory_footprint();
  const auto fp_sampled = sampled.memory_footprint();
  EXPECT_GT(fp_full.sa_bytes, fp_sampled.sa_bytes);
  EXPECT_EQ(fp_full.bwt_bytes, fp_sampled.bwt_bytes);
  EXPECT_GT(fp_full.total(), 0U);
  // BWT at 2 bits/base: 4097 symbols -> ~1 KiB.
  EXPECT_NEAR(static_cast<double>(fp_full.bwt_bytes), 4097.0 / 4.0, 8.0);
}

TEST(FmIndex, FromPartsRejectsTextOfWrongLength) {
  const PackedSequence text = genome::generate_uniform(1000, 3);
  const FmIndex built = FmIndex::build(text, {.bucket_width = 64});
  const auto assemble = [&](PackedSequence reference) {
    return FmIndex::from_parts(built.config(), std::move(reference),
                               built.bwt(), built.counts(), built.markers(),
                               built.sampled_sa());
  };
  EXPECT_TRUE(assemble(text).reference() == text);
  EXPECT_THROW(assemble(PackedSequence(text.slice(0, 999))),
               std::invalid_argument);
  PackedSequence longer = text;
  longer.push_back(Base::A);
  EXPECT_THROW(assemble(longer), std::invalid_argument);
}

TEST(FmIndex, FinishOneRowVerifiesThePrefix) {
  const PackedSequence text = genome::generate_uniform(2000, 5);
  const FmIndex fm = FmIndex::build(text, {.bucket_width = 128});
  // Walk T[1500, 1540) backwards until its interval is one row.
  SaInterval row = fm.whole_interval();
  std::size_t rest = 1540;
  while (row.count() != 1) row = fm.extend(row, text.at(--rest));
  ASSERT_GT(rest, 1500U);
  ASSERT_EQ(fm.locate(row.low), rest);
  std::vector<std::uint64_t> out;
  auto prefix = text.slice(1500, rest);
  fm.finish_one_row(row, prefix, out);
  EXPECT_EQ(out, std::vector<std::uint64_t>{1500});
  prefix[0] = static_cast<Base>((static_cast<int>(prefix[0]) + 1) % 4);
  fm.finish_one_row(row, prefix, out);
  EXPECT_TRUE(out.empty());
  // A prefix longer than the row's text position fits nowhere.
  fm.finish_one_row(row, std::vector<Base>(rest + 1, Base::A), out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace pim::index
