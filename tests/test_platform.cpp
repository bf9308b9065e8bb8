#include "src/pim/platform.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "src/align/backward_search.h"
#include "src/align/inexact_search.h"
#include "src/genome/synthetic_genome.h"
#include "src/util/rng.h"

namespace pim::hw {
namespace {

using genome::Base;

struct Fixture {
  genome::PackedSequence text;
  index::FmIndex fm;
  TimingEnergyModel model;
  std::unique_ptr<PimAlignerPlatform> platform;

  explicit Fixture(std::size_t length, std::uint64_t seed = 1) {
    genome::SyntheticGenomeSpec spec;
    spec.length = length;
    spec.seed = seed;
    text = genome::generate_reference(spec);
    fm = index::FmIndex::build(text, {.bucket_width = 128});
    platform = std::make_unique<PimAlignerPlatform>(fm, model);
  }
};

TEST(Platform, TileCountCoversBwt) {
  Fixture f(100000);
  // 100001 rows / 32768 per tile -> 4 tiles.
  EXPECT_EQ(f.platform->num_tiles(), 4U);
}

TEST(Platform, LfmMatchesSoftwareEverywhere) {
  Fixture f(70000, 3);
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint64_t id = rng.bounded(f.fm.num_rows() + 1);
    const auto nt = static_cast<Base>(rng.bounded(4));
    ASSERT_EQ(f.platform->lfm(nt, id), f.fm.lfm(nt, id))
        << "id=" << id << " nt=" << genome::to_char(nt);
  }
}

TEST(Platform, LfmAtEveryTileBoundary) {
  Fixture f(70000, 3);
  for (std::uint64_t id : {std::uint64_t{0}, std::uint64_t{32768},
                           std::uint64_t{65536}, f.fm.num_rows()}) {
    for (const auto nt : genome::kAllBases) {
      EXPECT_EQ(f.platform->lfm(nt, id), f.fm.lfm(nt, id)) << id;
    }
  }
}

TEST(Platform, BoundaryRegisterWhenBwtEndsOnTileEdge) {
  // Reference of exactly 32767 bases -> 32768 BWT rows == one full tile;
  // lfm at id == 32768 must come from the DPU boundary registers.
  Fixture f(32767, 9);
  ASSERT_EQ(f.fm.num_rows(), 32768U);
  EXPECT_EQ(f.platform->num_tiles(), 1U);
  for (const auto nt : genome::kAllBases) {
    EXPECT_EQ(f.platform->lfm(nt, 32768), f.fm.lfm(nt, 32768));
  }
  EXPECT_EQ(f.platform->aggregate_stats().boundary_marker_hits, 4U);
}

TEST(Platform, LfmOutOfRangeThrows) {
  Fixture f(1000);
  EXPECT_THROW(f.platform->lfm(Base::A, f.fm.num_rows() + 1),
               std::out_of_range);
}

TEST(Platform, ExtendMatchesSoftware) {
  Fixture f(20000, 7);
  util::Xoshiro256 rng(11);
  index::SaInterval sw = f.fm.whole_interval();
  index::SaInterval hwi = f.platform->whole_interval();
  for (int step = 0; step < 40 && sw.valid(); ++step) {
    const auto nt = static_cast<Base>(rng.bounded(4));
    sw = f.fm.extend(sw, nt);
    hwi = f.platform->extend_hw(hwi, nt);
    ASSERT_EQ(hwi, sw) << "step " << step;
  }
}

// Bit-identical end-to-end: hardware Algorithm 1 equals software.
TEST(Platform, ExactAlignBitIdentical) {
  Fixture f(40000, 13);
  util::Xoshiro256 rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Base> read;
    if (trial % 2 == 0) {
      const std::size_t start = rng.bounded(f.text.size() - 64);
      read = f.text.slice(start, start + 64);
    } else {
      for (int i = 0; i < 40; ++i) {
        read.push_back(static_cast<Base>(rng.bounded(4)));
      }
    }
    const auto sw = align::exact_search(f.fm, read);
    const auto hw_result = f.platform->exact_align(read);
    EXPECT_EQ(hw_result.interval, sw.interval);
    EXPECT_EQ(hw_result.steps, sw.steps);
  }
}

// Bit-identical Algorithm 2 (one extend4 per node on both backends):
// intervals, diff counts, explored states and truncation agree, with and
// without a state budget.
TEST(Platform, InexactAlignBitIdentical) {
  Fixture f(15000, 19);
  util::Xoshiro256 rng(23);
  align::InexactOptions opt;
  opt.max_diffs = 2;
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t start = rng.bounded(f.text.size() - 24);
    auto read = f.text.slice(start, start + 24);
    read[5] = static_cast<Base>(rng.bounded(4));
    read[17] = static_cast<Base>(rng.bounded(4));
    opt.max_states = trial % 5 == 4 ? 40 : 0;
    const auto sw = align::inexact_search(f.fm, read, opt);
    const auto hw_result = f.platform->inexact_align(read, opt);
    EXPECT_EQ(hw_result.states_explored, sw.states_explored);
    EXPECT_EQ(hw_result.truncated, sw.truncated);
    EXPECT_EQ(sw.truncated, opt.max_states != 0);
    ASSERT_EQ(hw_result.hits.size(), sw.hits.size());
    for (std::size_t i = 0; i < sw.hits.size(); ++i) {
      EXPECT_EQ(hw_result.hits[i].interval, sw.hits[i].interval);
      EXPECT_EQ(hw_result.hits[i].diffs, sw.hits[i].diffs);
    }
  }
}

// extend4 is the four hardware extends in base order: same intervals, same
// LFM demand (two LFMs per base) and the same charged sub-array operations.
TEST(PimSearchBackend, Extend4EqualsFourExtendsAndChargesEightLfms) {
  Fixture f(70000, 29);
  const PimSearchBackend backend(f.platform.get());
  util::Xoshiro256 rng(31);
  std::vector<index::SaInterval> intervals = {f.fm.whole_interval(),
                                              {f.fm.num_rows(), f.fm.num_rows()},
                                              {0, 0}};
  for (int trial = 0; trial < 40; ++trial) {
    std::uint64_t a = rng.bounded(f.fm.num_rows() + 1);
    std::uint64_t b = rng.bounded(f.fm.num_rows() + 1);
    if (a > b) std::swap(a, b);
    intervals.push_back({a, b});
    const std::size_t start = rng.bounded(f.text.size() - 12);
    intervals.push_back(
        align::exact_search(f.fm, f.text.slice(start, start + 12)).interval);
  }
  for (const auto& interval : intervals) {
    const auto before = f.platform->aggregate_stats();
    const auto four = backend.extend4(interval);
    const auto after4 = f.platform->aggregate_stats();
    EXPECT_EQ(after4.lfm_calls - before.lfm_calls, 8U);
    for (const auto nt : genome::kAllBases) {
      const auto expected = backend.extend(interval, nt);
      EXPECT_EQ(four[static_cast<std::size_t>(nt)], expected);
      EXPECT_EQ(expected, f.fm.extend(interval, nt));
    }
    const auto after1 = f.platform->aggregate_stats();
    EXPECT_EQ(after1.lfm_calls - after4.lfm_calls, 8U);
    EXPECT_EQ(after1.ops.triple_senses - after4.ops.triple_senses,
              after4.ops.triple_senses - before.ops.triple_senses);
    EXPECT_EQ(after1.ops.reads - after4.ops.reads,
              after4.ops.reads - before.ops.reads);
    EXPECT_EQ(after1.ops.writes - after4.ops.writes,
              after4.ops.writes - before.ops.writes);
    EXPECT_EQ(after1.ops.dpu_word_ops - after4.ops.dpu_word_ops,
              after4.ops.dpu_word_ops - before.ops.dpu_word_ops);
  }
}

TEST(Platform, StatsAccumulateAndReset) {
  Fixture f(5000);
  const auto read = f.text.slice(100, 150);
  f.platform->exact_align(read);
  auto stats = f.platform->aggregate_stats();
  EXPECT_GT(stats.lfm_calls, 0U);
  EXPECT_GT(stats.ops.triple_senses, 0U);
  EXPECT_GT(stats.ops.energy_pj, 0.0);
  f.platform->reset_stats();
  stats = f.platform->aggregate_stats();
  EXPECT_EQ(stats.lfm_calls, 0U);
  EXPECT_EQ(stats.ops.triple_senses, 0U);
}

TEST(Platform, LocateChargesSaReads) {
  Fixture f(5000);
  const auto read = f.text.slice(200, 240);
  const auto result = f.platform->exact_align(read);
  ASSERT_TRUE(result.found());
  const auto positions = f.platform->locate_all(result.interval);
  EXPECT_FALSE(positions.empty());
  EXPECT_EQ(f.platform->aggregate_stats().sa_mem_reads,
            result.interval.count());
  // Positions agree with the software index.
  EXPECT_EQ(positions, f.fm.locate_all(result.interval));
}

TEST(Platform, LoadStatsReportSetupCost) {
  Fixture f(5000);
  const auto load = f.platform->aggregate_load_stats();
  EXPECT_GT(load.writes, 0U);
  EXPECT_GT(load.energy_pj, 0.0);
}

// --- Geometry generality: a 1024x512 array organisation ---------------------

TEST(Platform, NonDefaultArrayOrganisation) {
  // 1024x512 sub-arrays: 256 bps per row, so the FM bucket width is 256 and
  // a tile covers 512 rows x 256 bps = 131'072 BWT positions.
  util::Config over;
  over.set_int("RowsPerSubarray", 1024);
  over.set_int("ColsPerSubarray", 512);
  const TimingEnergyModel timing(over);
  ZoneLayout layout;
  layout.bwt_rows = 512;
  layout.cref_rows = 4;
  layout.mt_rows = 128;
  layout.reserved_rows = 380;
  ASSERT_NO_THROW(layout.validate(timing));
  EXPECT_EQ(layout.bps_per_tile(timing.cols()), 131072U);

  genome::SyntheticGenomeSpec spec;
  spec.length = 200000;  // spans 2 tiles
  spec.seed = 44;
  const auto text = genome::generate_reference(spec);
  const auto fm = index::FmIndex::build(text, {.bucket_width = 256});
  PimAlignerPlatform platform(fm, timing, layout);
  EXPECT_EQ(platform.num_tiles(), 2U);

  util::Xoshiro256 rng(45);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t id = rng.bounded(fm.num_rows() + 1);
    const auto nt = static_cast<Base>(rng.bounded(4));
    ASSERT_EQ(platform.lfm(nt, id), fm.lfm(nt, id)) << id;
  }
  // End-to-end too.
  const auto read = text.slice(150000, 150080);
  const auto hw_result = platform.exact_align(read);
  const auto sw = align::exact_search(fm, read);
  EXPECT_EQ(hw_result.interval, sw.interval);
}

// --- Method-II (duplicated add arrays, Fig. 6d) ------------------------------

TEST(PlatformMethodII, LfmBitIdenticalToMethodI) {
  Fixture f(40000, 31);
  PimAlignerPlatform method2(f.fm, f.model, ZoneLayout{},
                             AddPlacement::kMethodII);
  util::Xoshiro256 rng(33);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t id = rng.bounded(f.fm.num_rows() + 1);
    const auto nt = static_cast<Base>(rng.bounded(4));
    ASSERT_EQ(method2.lfm(nt, id), f.fm.lfm(nt, id)) << id;
  }
}

TEST(PlatformMethodII, AlignmentResultsIdentical) {
  Fixture f(30000, 35);
  PimAlignerPlatform method2(f.fm, f.model, ZoneLayout{},
                             AddPlacement::kMethodII);
  util::Xoshiro256 rng(37);
  align::InexactOptions opt;
  opt.max_diffs = 2;
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t start = rng.bounded(f.text.size() - 40);
    auto read = f.text.slice(start, start + 40);
    read[11] = static_cast<Base>(rng.bounded(4));
    const auto a = f.platform->inexact_align(read, opt);
    const auto b = method2.inexact_align(read, opt);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      EXPECT_EQ(a.hits[h].interval, b.hits[h].interval);
    }
  }
}

TEST(PlatformMethodII, ResourceSplitMatchesFig7) {
  Fixture f(20000, 39);
  PimAlignerPlatform method2(f.fm, f.model, ZoneLayout{},
                             AddPlacement::kMethodII);
  method2.reset_stats();
  util::Xoshiro256 rng(41);
  std::uint64_t off_checkpoint = 0;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t id = 1 + rng.bounded(f.fm.num_rows() - 1);
    if (id % 128 != 0) ++off_checkpoint;
    method2.lfm(static_cast<Base>(rng.bounded(4)), id);
  }
  const auto total = method2.aggregate_stats();
  const auto add_side = method2.aggregate_duplicate_stats();
  // Compare side: exactly one triple sense (the XNOR_Match) per
  // off-checkpoint LFM; all adder triples live on the duplicates.
  EXPECT_EQ(total.ops.triple_senses - add_side.triple_senses,
            off_checkpoint);
  EXPECT_EQ(add_side.triple_senses, off_checkpoint * 32);
  // All steady-state writes (transpose + adder) are on the add side.
  EXPECT_EQ(add_side.writes, off_checkpoint * 97);
  EXPECT_EQ(total.ops.writes, add_side.writes);
}

TEST(PlatformMethodII, MethodIHasNoDuplicates) {
  Fixture f(5000);
  EXPECT_EQ(f.platform->placement(), AddPlacement::kMethodI);
  const auto dup = f.platform->aggregate_duplicate_stats();
  EXPECT_EQ(dup.writes, 0U);
  EXPECT_EQ(dup.triple_senses, 0U);
}

}  // namespace
}  // namespace pim::hw
