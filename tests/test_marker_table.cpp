#include "src/index/marker_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/genome/synthetic_genome.h"
#include "src/index/fm_index.h"
#include "src/index/mapped_index.h"
#include "src/util/rng.h"
#include "tests/support/occ_oracle.h"
#include "tests/temp_dir.h"

namespace pim::index {
namespace {

using genome::Base;
using genome::PackedSequence;

struct Fixture {
  PackedSequence text;
  Bwt bwt;
  CountTable counts;
  explicit Fixture(PackedSequence t) : text(std::move(t)) {
    bwt = build_bwt(text, build_suffix_array(text));
    counts = CountTable(bwt);
  }
};

TEST(MarkerTable, RejectsZeroBucket) {
  const Fixture f(PackedSequence("ACGT"));
  EXPECT_THROW(MarkerTable(f.bwt, f.counts, 0), std::invalid_argument);
}

TEST(MarkerTable, MarkerIsCountPlusSampledOcc) {
  const Fixture f(PackedSequence("TGCTATGCTAGGCCAATT"));
  const std::uint32_t d = 4;
  const MarkerTable mt(f.bwt, f.counts, d);
  const OccTable occ(f.bwt);
  ASSERT_EQ(mt.num_checkpoints(), f.bwt.size() / d + 1);
  for (std::size_t k = 0; k < mt.num_checkpoints(); ++k) {
    for (const auto nt : genome::kAllBases) {
      EXPECT_EQ(mt.marker(nt, k), f.counts.count(nt) + occ.occ(nt, k * d));
    }
  }
}

// The defining identity of the hardware-friendly reconstruction:
// LFM(MT, nt, id) == Count(nt) + Occ(nt, id) for every id and nt.
class LfmIdentity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LfmIdentity, LfmEqualsCountPlusOcc) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 700;
  spec.seed = 31;
  spec.repeat_fraction = 0.3;
  const Fixture f(genome::generate_reference(spec));
  const MarkerTable mt(f.bwt, f.counts, GetParam());
  const OccTable occ(f.bwt);
  for (std::size_t id = 0; id <= f.bwt.size(); ++id) {
    for (const auto nt : genome::kAllBases) {
      ASSERT_EQ(mt.lfm(f.bwt, nt, id), f.counts.count(nt) + occ.occ(nt, id))
          << "d=" << GetParam() << " id=" << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BucketWidths, LfmIdentity,
                         ::testing::Values(1U, 7U, 32U, 128U));

TEST(MarkerTable, LfmOutOfRangeThrows) {
  const Fixture f(PackedSequence("ACGT"));
  const MarkerTable mt(f.bwt, f.counts, 2);
  EXPECT_THROW(mt.lfm(f.bwt, Base::A, f.bwt.size() + 1), std::out_of_range);
  EXPECT_THROW(mt.lfm4(f.bwt, f.bwt.size() + 1), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Kernel oracle: lfm, lfm4 and extend4 against Count + the full OccTable.
// ---------------------------------------------------------------------------

genome::PackedSequence reference_of(std::size_t length, std::uint64_t seed) {
  genome::SyntheticGenomeSpec spec;
  spec.length = length;
  spec.seed = seed;
  spec.repeat_fraction = 0.3;
  return genome::generate_reference(spec);
}

/// Probe ids: 0 and num_rows, both sides of bucket and word boundaries, the
/// primary row and its neighbours, then uniform random ids.
std::vector<std::size_t> probe_ids(const FmIndex& fm, util::Xoshiro256& rng) {
  const std::size_t rows = fm.num_rows();
  const std::size_t d = fm.config().bucket_width;
  std::vector<std::size_t> ids = {0, rows};
  const auto around = [&](std::size_t boundary) {
    for (const std::size_t id : {boundary - 1, boundary, boundary + 1}) {
      if (id <= rows) ids.push_back(id);  // boundary - 1 wraps when 0
    }
  };
  around(fm.bwt().primary);
  around(rows / d * d);
  around(rows / 32 * 32);
  for (int i = 0; i < 64; ++i) {
    around(rng.bounded(rows / d + 1) * d);
    around(rng.bounded(rows / 32 + 1) * 32);
  }
  for (int i = 0; i < 2000; ++i) ids.push_back(rng.bounded(rows + 1));
  return ids;
}

void expect_lfm_matches_oracle(const FmIndex& fm, const OccTable& occ,
                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::vector<std::size_t> ids = probe_ids(fm, rng);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::size_t id = ids[i];
    const std::size_t other = ids[rng.bounded(ids.size())];
    const SaInterval interval{std::min(id, other), std::max(id, other)};
    const BaseCounts four = fm.lfm4(id);
    const auto next = fm.extend4(interval);
    for (const auto nt : genome::kAllBases) {
      const std::uint64_t count = fm.counts().count(nt);
      const std::uint64_t expected = count + occ.occ(nt, id);
      ASSERT_EQ(fm.lfm(nt, id), expected)
          << "d=" << fm.config().bucket_width << " id=" << id;
      ASSERT_EQ(four[static_cast<std::size_t>(nt)], expected)
          << "d=" << fm.config().bucket_width << " id=" << id;
      const SaInterval want{count + occ.occ(nt, interval.low),
                            count + occ.occ(nt, interval.high)};
      ASSERT_EQ(next[static_cast<std::size_t>(nt)], want)
          << "[" << interval.low << "," << interval.high << ")";
      ASSERT_EQ(fm.extend(interval, nt), want);
    }
  }
}

class LfmKernelOracle
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint32_t>> {
};

TEST_P(LfmKernelOracle, LfmLfm4AndExtend4MatchFullTable) {
  const auto [length, d] = GetParam();
  const PackedSequence text = reference_of(length, 200 + length);
  const FmIndex fm = FmIndex::build(text, {.bucket_width = d});
  expect_lfm_matches_oracle(fm, OccTable(fm.bwt()), length * 1000 + d);
}

INSTANTIATE_TEST_SUITE_P(
    LengthsAndBuckets, LfmKernelOracle,
    ::testing::Combine(::testing::Values(1U, 31U, 32U, 33U, 5000U, 60001U),
                       ::testing::Values(1U, 2U, 4U, 16U, 33U, 64U, 128U,
                                         256U)));

// The sentinel correction where it is easiest to get wrong: the primary row
// in the first and in the last 2-bit lane of a packed word.
TEST(LfmKernel, PrimaryInFirstAndLastLaneOfAWord) {
  for (const std::size_t lane : {0U, 31U}) {
    std::uint64_t seed = 1;
    PackedSequence text;
    SuffixArray sa;
    for (; seed < 1000; ++seed) {
      text = reference_of(2000, seed);
      sa = build_suffix_array(text);
      if (build_bwt(text, sa).primary % 32 == lane) break;
    }
    ASSERT_LT(seed, 1000U) << "no reference with the primary in lane " << lane;
    for (const std::uint32_t d : {1U, 16U, 33U, 128U}) {
      const FmIndex fm = FmIndex::build_from_sa(text, sa, {.bucket_width = d});
      ASSERT_EQ(fm.bwt().primary % 32, lane);
      expect_lfm_matches_oracle(fm, OccTable(fm.bwt()), seed * 10 + d);
    }
  }
}

// Zero-copy load: the kernel reads BWT words borrowed from a mapped v2
// artifact and must agree with the oracle exactly as on the built index.
TEST(LfmKernel, BorrowedWordsFromMappedArtifact) {
  const PackedSequence text = reference_of(60001, 77);
  const FmIndex built = FmIndex::build(text, {.bucket_width = 128});
  const tests::TempDir dir;
  const std::string path = dir.file("oracle.index");
  save_index_file(path, built);
  const MappedIndex mapped = MappedIndex::open(path);
  ASSERT_TRUE(mapped.mapped());
  ASSERT_FALSE(mapped.index().bwt().symbols.owns_storage());
  expect_lfm_matches_oracle(mapped.index(), OccTable(built.bwt()), 78);
}

TEST(MarkerTable, MemoryScalesInverselyWithBucket) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 8192;
  spec.seed = 3;
  const Fixture f(genome::generate_reference(spec));
  const MarkerTable fine(f.bwt, f.counts, 32);
  const MarkerTable coarse(f.bwt, f.counts, 128);
  EXPECT_NEAR(static_cast<double>(fine.memory_bytes()) /
                  static_cast<double>(coarse.memory_bytes()),
              4.0, 0.3);
}

// LFM on the paper's worked example, end to end: backward search of R=CTA
// over S=TGCTA$ finds exactly one match.
TEST(MarkerTable, PaperBackwardSearchByHand) {
  const Fixture f(PackedSequence("TGCTA"));
  const MarkerTable mt(f.bwt, f.counts, 2);
  // Start: [0, 6). Extend with 'A' (rightmost of CTA):
  std::uint64_t low = mt.lfm(f.bwt, Base::A, 0);
  std::uint64_t high = mt.lfm(f.bwt, Base::A, 6);
  EXPECT_LT(low, high);
  // Extend with 'T':
  low = mt.lfm(f.bwt, Base::T, low);
  high = mt.lfm(f.bwt, Base::T, high);
  EXPECT_LT(low, high);
  // Extend with 'C':
  low = mt.lfm(f.bwt, Base::C, low);
  high = mt.lfm(f.bwt, Base::C, high);
  EXPECT_LT(low, high);
  EXPECT_EQ(high - low, 1U);  // CTA occurs exactly once in TGCTA
}

}  // namespace
}  // namespace pim::index
