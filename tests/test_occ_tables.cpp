#include "src/index/occ_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "src/genome/synthetic_genome.h"
#include "src/index/marker_table.h"
#include "src/index/occ_kernel.h"
#include "src/util/rng.h"
#include "tests/support/occ_oracle.h"

namespace pim::index {
namespace {

using genome::Base;
using genome::PackedSequence;

struct Fixture {
  PackedSequence text;
  Bwt bwt;
  explicit Fixture(const std::string& s) : text(s) {
    bwt = build_bwt(text, build_suffix_array(text));
  }
};

TEST(CountTable, PaperExample) {
  // S = TGCTA: occurrences A=1, C=1, G=1, T=2.
  // Count(nt) counts '$' plus all smaller bases.
  const Fixture f("TGCTA");
  const CountTable counts(f.bwt);
  EXPECT_EQ(counts.occurrences(Base::A), 1U);
  EXPECT_EQ(counts.occurrences(Base::C), 1U);
  EXPECT_EQ(counts.occurrences(Base::G), 1U);
  EXPECT_EQ(counts.occurrences(Base::T), 2U);
  EXPECT_EQ(counts.count(Base::A), 1U);
  EXPECT_EQ(counts.count(Base::C), 2U);
  EXPECT_EQ(counts.count(Base::G), 3U);
  EXPECT_EQ(counts.count(Base::T), 4U);
}

TEST(OccTable, ManualCheckOnPaperExample) {
  // BWT(TGCTA$) = ATGTC$.
  const Fixture f("TGCTA");
  const OccTable occ(f.bwt);
  EXPECT_EQ(occ.occ(Base::A, 0), 0U);
  EXPECT_EQ(occ.occ(Base::A, 1), 1U);
  EXPECT_EQ(occ.occ(Base::A, 6), 1U);
  EXPECT_EQ(occ.occ(Base::T, 2), 1U);
  EXPECT_EQ(occ.occ(Base::T, 4), 2U);
  EXPECT_EQ(occ.occ(Base::G, 3), 1U);
  EXPECT_EQ(occ.occ(Base::C, 5), 1U);
  EXPECT_EQ(occ.occ(Base::C, 4), 0U);
}

TEST(OccTable, SentinelRowNotCounted) {
  const Fixture f("TGCTA");
  const OccTable occ(f.bwt);
  // Row 5 is the sentinel (stored as dummy A): Occ(A) must not grow there.
  EXPECT_EQ(occ.occ(Base::A, 5), occ.occ(Base::A, 6));
}

// The sampled Occ the Marker Table stores needs a nonzero bucket width,
// also when its rows are reassembled from a persisted artifact.
TEST(SampledOccTable, RejectsZeroBucket) {
  EXPECT_THROW(MarkerTable::from_parts(0, util::Storage<OccCheckpoint>{}),
               std::invalid_argument);
}

// Property: the Marker Table is Count plus the Occ sampled every d rows, and
// its LFM equals Count + Occ, against the full table for every row, base
// and several bucket widths (including widths that do and do not divide
// n+1), on a random, a one-base and the paper's example BWT.
class SampledOccProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SampledOccProperty, MatchesFullTable) {
  const std::uint32_t d = GetParam();
  genome::SyntheticGenomeSpec spec;
  spec.length = 1000;
  spec.seed = 5;
  spec.repeat_fraction = 0.4;
  for (const PackedSequence& text :
       {genome::generate_reference(spec), PackedSequence(std::string(700, 'A')),
        PackedSequence("TGCTA")}) {
    const Bwt bwt = build_bwt(text, build_suffix_array(text));
    const OccTable full(bwt);
    const CountTable counts(bwt);
    const MarkerTable mt(bwt, counts, d);
    ASSERT_EQ(mt.num_checkpoints(), bwt.size() / d + 1);
    for (std::size_t i = 0; i <= bwt.size(); ++i) {
      for (const auto nt : genome::kAllBases) {
        ASSERT_EQ(mt.lfm(bwt, nt, i), counts.count(nt) + full.occ(nt, i))
            << "n=" << text.size() << " d=" << d << " i=" << i
            << " nt=" << genome::to_char(nt);
      }
    }
    for (std::size_t k = 0; k < mt.num_checkpoints(); ++k) {
      for (const auto nt : genome::kAllBases) {
        ASSERT_EQ(mt.marker(nt, k) - counts.count(nt), full.occ(nt, k * d))
            << "n=" << text.size() << " d=" << d << " k=" << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BucketWidths, SampledOccProperty,
                         ::testing::Values(1U, 2U, 3U, 4U, 16U, 64U, 128U,
                                           333U));

// LFM = marker + the residual count over BWT[id - id mod d, id) alone.
TEST(SampledOccTable, CountMatchIsResidualOnly) {
  const Fixture f("TGCTA");
  const CountTable counts(f.bwt);
  const MarkerTable mt(f.bwt, counts, 4);
  // id=5: bucket start 4, BWT[4]='C': count(C)=1, others 0.
  EXPECT_EQ(occ_kernel::count(f.bwt, Base::C, 4, 5), 1U);
  EXPECT_EQ(occ_kernel::count(f.bwt, Base::A, 4, 5), 0U);
  EXPECT_EQ(mt.lfm(f.bwt, Base::C, 5), mt.marker(Base::C, 1) + 1);
  EXPECT_EQ(mt.lfm(f.bwt, Base::A, 5), mt.marker(Base::A, 1));
  // On a checkpoint the residual is zero by definition.
  EXPECT_EQ(occ_kernel::count(f.bwt, Base::C, 4, 4), 0U);
  for (const auto nt : genome::kAllBases) {
    EXPECT_EQ(mt.lfm(f.bwt, nt, 4), mt.marker(nt, 1));
  }
}

TEST(SampledOccTable, MemoryShrinksWithBucketWidth) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 4096;
  spec.seed = 9;
  const PackedSequence text = genome::generate_reference(spec);
  const Bwt bwt = build_bwt(text, build_suffix_array(text));
  const CountTable counts(bwt);
  const MarkerTable fine(bwt, counts, 16);
  const MarkerTable coarse(bwt, counts, 128);
  EXPECT_GT(fine.memory_bytes(), coarse.memory_bytes());
  // Factor-of-d reduction claim from the paper (approximately, +-1 bucket).
  EXPECT_NEAR(static_cast<double>(fine.memory_bytes()) /
                  static_cast<double>(coarse.memory_bytes()),
              8.0, 0.5);
}

TEST(OccTable, OutOfRangeThrows) {
  const Fixture f("ACGT");
  const OccTable occ(f.bwt);
  EXPECT_NO_THROW(occ.occ(Base::A, f.bwt.size()));
  EXPECT_THROW(occ.occ(Base::A, f.bwt.size() + 1), std::out_of_range);
}

TEST(SampledOccTable, CountMatchOutOfRangeThrows) {
  const Fixture f("ACGTACGTTGCA");
  const MarkerTable mt(f.bwt, CountTable(f.bwt), 4);
  EXPECT_NO_THROW(mt.lfm(f.bwt, Base::A, f.bwt.size()));
  EXPECT_NO_THROW(mt.lfm4(f.bwt, f.bwt.size()));
  for (const std::size_t past : {f.bwt.size() + 1, f.bwt.size() + 4096}) {
    // Far past the packed words, not just one row past the end.
    EXPECT_THROW(mt.lfm4(f.bwt, past), std::out_of_range);
    for (const auto nt : genome::kAllBases) {
      EXPECT_THROW(mt.lfm(f.bwt, nt, past), std::out_of_range);
    }
  }
}

// ---------------------------------------------------------------------------
// The word kernel (occ_kernel.h) against the full OccTable: every count over
// [begin, end) must equal occ(end) - occ(begin), for one base and for all
// four at once, and the Marker Table built on it must agree everywhere.
// ---------------------------------------------------------------------------

class OccKernelOracle
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint32_t>> {
};

TEST_P(OccKernelOracle, RangeCountsMatchFullTable) {
  const auto [length, d] = GetParam();
  genome::SyntheticGenomeSpec spec;
  spec.length = length;
  spec.seed = 100 + length;
  spec.repeat_fraction = 0.3;
  const PackedSequence text = genome::generate_reference(spec);
  const Bwt bwt = build_bwt(text, build_suffix_array(text));
  const OccTable full(bwt);
  const CountTable counts(bwt);
  const MarkerTable mt(bwt, counts, d);
  const std::size_t rows = bwt.size();

  util::Xoshiro256 rng(7 * length + d);
  const auto random_id = [&] {
    return static_cast<std::size_t>(rng.bounded(rows + 1));
  };
  for (int probe = 0; probe < 3000; ++probe) {
    // Ranges of every shape: within one word, across words, whole buckets,
    // and ranges ending exactly at the last row.
    std::size_t begin = random_id();
    std::size_t end = probe % 4 == 0 ? rows : random_id();
    if (probe % 4 == 1) end = std::min(rows, begin + rng.bounded(2 * d + 1));
    if (begin > end) std::swap(begin, end);
    const BaseCounts four = occ_kernel::count4(bwt, begin, end);
    for (const auto nt : genome::kAllBases) {
      const std::uint64_t expected = full.occ(nt, end) - full.occ(nt, begin);
      ASSERT_EQ(occ_kernel::count(bwt, nt, begin, end), expected)
          << "n=" << length << " [" << begin << "," << end << ")";
      ASSERT_EQ(four[static_cast<std::size_t>(nt)], expected)
          << "n=" << length << " [" << begin << "," << end << ")";
    }
    const std::size_t id = random_id();
    for (const auto nt : genome::kAllBases) {
      ASSERT_EQ(mt.lfm(bwt, nt, id), counts.count(nt) + full.occ(nt, id))
          << "n=" << length << " d=" << d << " id=" << id;
    }
  }
  for (std::size_t k = 0; k < mt.num_checkpoints(); ++k) {
    for (const auto nt : genome::kAllBases) {
      ASSERT_EQ(mt.marker(nt, k) - counts.count(nt), full.occ(nt, k * d))
          << "k=" << k;
    }
  }
  for (const auto nt : genome::kAllBases) {
    EXPECT_EQ(counts.occurrences(nt), full.occ(nt, rows));
  }
}

INSTANTIATE_TEST_SUITE_P(
    LengthsAndBuckets, OccKernelOracle,
    ::testing::Combine(::testing::Values(1U, 31U, 32U, 33U, 5000U, 60001U),
                       ::testing::Values(1U, 2U, 4U, 16U, 33U, 64U, 128U,
                                         256U)));

TEST(OccKernel, EmptyRangeCountsNothing) {
  const Fixture f("TGCTA");
  for (std::size_t i = 0; i <= f.bwt.size(); ++i) {
    EXPECT_EQ(occ_kernel::count4(f.bwt, i, i), BaseCounts{});
    for (const auto nt : genome::kAllBases) {
      EXPECT_EQ(occ_kernel::count(f.bwt, nt, i, i), 0U);
    }
  }
}

}  // namespace
}  // namespace pim::index
