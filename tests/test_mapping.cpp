#include "src/pim/mapping.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/genome/synthetic_genome.h"
#include "src/index/occ_kernel.h"
#include "src/util/rng.h"

namespace pim::hw {
namespace {

using genome::Base;

TEST(ZoneLayout, DefaultFitsDefaultArray) {
  const TimingEnergyModel model;
  ZoneLayout layout;
  EXPECT_NO_THROW(layout.validate(model));
  EXPECT_EQ(layout.total_rows(), 512U);
  EXPECT_EQ(layout.bps_per_row(256), 128U);
  EXPECT_EQ(layout.bps_per_tile(256), 32768U);
}

TEST(ZoneLayout, ZoneOffsetsAreContiguous) {
  ZoneLayout layout;
  EXPECT_EQ(layout.bwt_zone_begin(), 0U);
  EXPECT_EQ(layout.cref_zone_begin(), 256U);
  EXPECT_EQ(layout.mt_zone_begin(), 260U);
  EXPECT_EQ(layout.reserved_zone_begin(), 388U);
}

TEST(ZoneLayout, ValidationCatchesBadGeometry) {
  const TimingEnergyModel model;
  ZoneLayout bad;
  bad.bwt_rows = 100;  // zones no longer sum to 512
  EXPECT_THROW(bad.validate(model), std::invalid_argument);

  ZoneLayout small_mt;
  small_mt.mt_rows = 64;
  small_mt.reserved_rows = 188;  // sums ok, but MT can't hold 4 banks
  EXPECT_THROW(small_mt.validate(model), std::invalid_argument);

  ZoneLayout small_reserved;
  small_reserved.mt_rows = 188;
  small_reserved.reserved_rows = 64;  // < 2*32+1
  EXPECT_THROW(small_reserved.validate(model), std::invalid_argument);
}

struct Fixture {
  genome::PackedSequence text;
  index::FmIndex fm;
  TimingEnergyModel model;
  ZoneLayout layout;

  explicit Fixture(std::size_t length, std::uint64_t seed = 1) {
    genome::SyntheticGenomeSpec spec;
    spec.length = length;
    spec.seed = seed;
    text = genome::generate_reference(spec);
    fm = index::FmIndex::build(text, {.bucket_width = 128});
  }
};

TEST(PimTile, RejectsMismatchedBucketWidth) {
  Fixture f(2000);
  const auto fm_bad =
      index::FmIndex::build(f.text, {.bucket_width = 64});
  EXPECT_THROW(PimTile(f.model, f.layout, fm_bad, 0), std::invalid_argument);
}

TEST(PimTile, RejectsUnalignedBase) {
  Fixture f(2000);
  EXPECT_THROW(PimTile(f.model, f.layout, f.fm, 100), std::invalid_argument);
  EXPECT_THROW(PimTile(f.model, f.layout, f.fm, 65536), std::invalid_argument);
}

TEST(PimTile, SizeCoversPartialTail) {
  Fixture f(2000);
  PimTile tile(f.model, f.layout, f.fm, 0);
  EXPECT_EQ(tile.base(), 0U);
  EXPECT_EQ(tile.size(), 2001U);  // n + 1 BWT rows
  EXPECT_EQ(tile.capacity(), 32768U);
}

TEST(PimTile, MarkersStoredVerticallyMatchSoftware) {
  Fixture f(5000);
  PimTile tile(f.model, f.layout, f.fm, 0);
  const auto& markers = f.fm.markers();
  const std::uint32_t checkpoints =
      static_cast<std::uint32_t>(f.fm.num_rows() / 128 + 1);
  for (std::uint32_t k = 0; k < checkpoints; ++k) {
    for (const auto nt : genome::kAllBases) {
      EXPECT_EQ(tile.peek_marker(nt, k), markers.marker(nt, k))
          << "k=" << k << " nt=" << genome::to_char(nt);
    }
  }
}

TEST(PimTile, CountMatchMatchesSoftwareResidual) {
  Fixture f(4000, 3);
  PimTile tile(f.model, f.layout, f.fm, 0);
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t id = 1 + rng.bounded(f.fm.num_rows() - 1);
    if (id % 128 == 0) continue;
    const auto nt = static_cast<Base>(rng.bounded(4));
    EXPECT_EQ(tile.count_match(nt, id),
              index::occ_kernel::count(f.fm.bwt(), nt, id - id % 128, id))
        << "id=" << id;
  }
}

TEST(PimTile, CountMatchSentinelCorrection) {
  // Pick ids straddling the primary row; the dummy 'A' stored there must
  // never be counted.
  Fixture f(3000, 7);
  PimTile tile(f.model, f.layout, f.fm, 0);
  const std::uint64_t primary = f.fm.bwt().primary;
  for (std::uint64_t id = primary + 1;
       id <= std::min<std::uint64_t>(primary + 3, f.fm.num_rows()); ++id) {
    if (id % 128 == 0) continue;
    EXPECT_EQ(tile.count_match(Base::A, id),
              index::occ_kernel::count(f.fm.bwt(), Base::A, id - id % 128, id))
        << "id=" << id;
  }
}

// count_match fuses XNOR_Match with the DPU's lane-pair popcount. It must
// equal the unfused procedure: materialise the XNOR2 row, test each lane's
// two bits, then apply the DPU's sentinel correction.
std::uint64_t unfused_count_match(PimTile& tile, const ZoneLayout& layout,
                                  const index::Bwt& bwt, Base nt,
                                  std::uint64_t id) {
  const std::uint64_t local = id - tile.base();
  const std::uint64_t residual = local % 128;
  const util::BitVector match = tile.array().xnor2(
      layout.bwt_zone_begin() + static_cast<std::uint32_t>(local / 128),
      layout.cref_zone_begin() + static_cast<std::uint32_t>(nt));
  std::uint64_t count = 0;
  for (std::uint64_t j = 0; j < residual; ++j) {
    if (match.get(2 * j) && match.get(2 * j + 1)) ++count;
  }
  if (nt == index::Bwt::kSentinelFill && bwt.primary >= id - residual &&
      bwt.primary < id) {
    --count;
  }
  return count;
}

TEST(PimTile, FusedCountMatchEqualsUnfusedReference) {
  Fixture f(50000, 17);  // two tiles; one of them holds the primary row
  const std::uint64_t primary = f.fm.bwt().primary;
  std::uint64_t sentinel_cases = 0;
  for (const std::uint64_t base : {0ULL, 32768ULL}) {
    PimTile tile(f.model, f.layout, f.fm, base);
    const std::uint64_t last_row = (tile.size() - 1) / 128;
    std::vector<std::uint64_t> rows = {0, last_row};
    if (primary >= base && primary < base + tile.size()) {
      rows.push_back((primary - base) / 128);
    }
    for (const std::uint64_t row : rows) {
      for (const auto nt : genome::kAllBases) {
        for (std::uint64_t residual = 1; residual < 128; ++residual) {
          const std::uint64_t id = base + row * 128 + residual;
          if (id > base + tile.size()) break;
          if (nt == index::Bwt::kSentinelFill && primary >= id - residual &&
              primary < id) {
            ++sentinel_cases;
          }
          ASSERT_EQ(tile.count_match(nt, id),
                    unfused_count_match(tile, f.layout, f.fm.bwt(), nt, id))
              << "id=" << id << " nt=" << genome::to_char(nt);
        }
      }
    }
  }
  EXPECT_GT(sentinel_cases, 0U);
}

TEST(PimTile, CountMatchRejectsOutOfRange) {
  Fixture f(2000);
  PimTile tile(f.model, f.layout, f.fm, 0);
  EXPECT_THROW(tile.count_match(Base::A, 0), std::invalid_argument);
  EXPECT_THROW(tile.count_match(Base::A, 128), std::invalid_argument);  // residual 0
  EXPECT_THROW(tile.count_match(Base::A, 40000), std::invalid_argument);
}

// The central hardware-equals-software identity, swept over random ids.
TEST(PimTile, LfmBitIdenticalToSoftware) {
  Fixture f(6000, 11);
  PimTile tile(f.model, f.layout, f.fm, 0);
  util::Xoshiro256 rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t id = rng.bounded(f.fm.num_rows() + 1);
    const auto nt = static_cast<Base>(rng.bounded(4));
    EXPECT_EQ(tile.lfm(nt, id), f.fm.lfm(nt, id))
        << "id=" << id << " nt=" << genome::to_char(nt);
  }
}

TEST(PimTile, LfmOnCheckpointUsesMarkerOnly) {
  Fixture f(4000, 2);
  PimTile tile(f.model, f.layout, f.fm, 0);
  tile.reset_stats();
  const std::uint64_t got = tile.lfm(Base::C, 256);
  EXPECT_EQ(got, f.fm.lfm(Base::C, 256));
  // Checkpoint-aligned LFM is pure MEM: no triple senses, no writes.
  EXPECT_EQ(tile.stats().triple_senses, 0U);
  EXPECT_EQ(tile.stats().writes, 0U);
  EXPECT_EQ(tile.stats().reads, 32U);
}

TEST(PimTile, LfmOffCheckpointUsesFullPath) {
  Fixture f(4000, 2);
  PimTile tile(f.model, f.layout, f.fm, 0);
  tile.reset_stats();
  tile.lfm(Base::C, 300);
  // XNOR (1 triple) + add (32 triples) and the transpose/add writes.
  EXPECT_EQ(tile.stats().triple_senses, 33U);
  EXPECT_GT(tile.stats().writes, 64U);
  EXPECT_EQ(tile.stats().dpu_word_ops, 1U);
}

TEST(PimTile, SecondTileHandlesItsRange) {
  Fixture f(50000, 17);  // spans 2 tiles (32768 capacity)
  PimTile tile0(f.model, f.layout, f.fm, 0);
  PimTile tile1(f.model, f.layout, f.fm, 32768);
  EXPECT_EQ(tile1.base(), 32768U);
  EXPECT_EQ(tile1.size(), f.fm.num_rows() - 32768);
  util::Xoshiro256 rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint64_t id = 32768 + rng.bounded(f.fm.num_rows() - 32768 + 1);
    const auto nt = static_cast<Base>(rng.bounded(4));
    EXPECT_EQ(tile1.lfm(nt, id), f.fm.lfm(nt, id)) << id;
  }
  EXPECT_THROW(tile1.lfm(Base::A, 100), std::invalid_argument);
}

TEST(PimTile, LoadStatsSeparateFromRuntime) {
  Fixture f(2000);
  PimTile tile(f.model, f.layout, f.fm, 0);
  EXPECT_GT(tile.load_stats().writes, 0U);
  EXPECT_EQ(tile.stats().writes, 0U);  // runtime stats start clean
}

}  // namespace
}  // namespace pim::hw
