#include "src/pim/endurance.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/genome/synthetic_genome.h"

namespace pim::hw {
namespace {

struct Fixture {
  genome::PackedSequence text;
  index::FmIndex fm;
  TimingEnergyModel model;
  ZoneLayout layout;

  Fixture() {
    genome::SyntheticGenomeSpec spec;
    spec.length = 20000;
    spec.seed = 6;
    text = genome::generate_reference(spec);
    fm = index::FmIndex::build(text, {.bucket_width = 128});
  }
};

TEST(Endurance, RequiresTracking) {
  Fixture f;
  PimTile tile(f.model, f.layout, f.fm, 0);
  EXPECT_THROW(analyze_endurance(tile.array(), f.layout, 1),
               std::invalid_argument);
}

TEST(SubArray, WriteTrackingCounts) {
  TimingEnergyModel model;
  SubArray array(model);
  array.enable_write_tracking();
  EXPECT_TRUE(array.write_tracking_enabled());
  array.write_row(5, util::BitVector(array.cols()));
  array.write_row(5, util::BitVector(array.cols()));
  array.write_word_vertical(0, 10, 4, 0xF);
  EXPECT_EQ(array.row_write_counts()[5], 2U);
  for (std::uint32_t r = 10; r < 14; ++r) {
    EXPECT_EQ(array.row_write_counts()[r], 1U);
  }
  array.reset_write_counts();
  EXPECT_EQ(array.row_write_counts()[5], 0U);
}

TEST(Endurance, CarryRowIsTheHotSpot) {
  Fixture f;
  PimTile tile(f.model, f.layout, f.fm, 0);
  tile.array().enable_write_tracking();
  std::uint64_t lfm_count = 0;
  for (std::uint64_t id = 1; id < 5000; id += 37) {
    if (id % 128 == 0) continue;
    tile.lfm(genome::Base::C, id);
    ++lfm_count;
  }
  const auto report = analyze_endurance(tile.array(), f.layout, lfm_count);
  EXPECT_GT(report.total_writes, 0U);
  // The carry row takes 33 writes per off-checkpoint LFM — more than any
  // sum/count row (1 each) and the untouched BWT/MT data rows (0).
  EXPECT_EQ(report.hottest_zone, "reserved");
  EXPECT_EQ(report.hottest_row,
            f.layout.reserved_zone_begin() + f.layout.carry_row_offset());
  EXPECT_NEAR(report.hottest_writes_per_lfm(), 33.0, 0.01);
}

TEST(Endurance, ZoneTotalsSumToTotal) {
  Fixture f;
  PimTile tile(f.model, f.layout, f.fm, 0);
  tile.array().enable_write_tracking();
  for (std::uint64_t id = 1; id < 1000; id += 13) {
    if (id % 128 == 0) continue;
    tile.lfm(genome::Base::A, id);
  }
  const auto report = analyze_endurance(tile.array(), f.layout, 1);
  std::uint64_t sum = 0;
  for (const auto& z : report.by_zone) sum += z.writes;
  EXPECT_EQ(sum, report.total_writes);
  // Steady-state LFM traffic never writes the BWT or CRef zones.
  for (const auto& z : report.by_zone) {
    if (z.zone == "BWT" || z.zone == "CRef") {
      EXPECT_EQ(z.writes, 0U);
    }
  }
}

TEST(Endurance, LifetimeProjection) {
  EnduranceReport report;
  report.hottest_row_writes = 33;
  report.lfm_count = 1;
  // Per-tile LFM rate at full chip throughput: ~2e9 LFM/s spread over
  // ~97'657 tiles ~ 2.05e4 LFM/s per tile. Against 1e15 cycles the carry
  // row survives ~47 years — SOT-MRAM endurance absorbs the hot spot.
  const double years = report.projected_lifetime_years(2.05e4, 1e15);
  EXPECT_GT(years, 30.0);
  EXPECT_LT(years, 70.0);
  // A ReRAM-class cell (1e8 cycles) in the same role would die within
  // hours — the endurance advantage the paper's introduction cites.
  EXPECT_LT(report.projected_lifetime_years(2.05e4, 1e8), 1e-2);
  // No writes => effectively unlimited.
  EnduranceReport idle;
  EXPECT_GT(idle.projected_lifetime_years(2.05e4, 1e15), 1e17);
}

}  // namespace
}  // namespace pim::hw
