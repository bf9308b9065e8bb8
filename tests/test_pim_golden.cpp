// Golden tallies of the simulated PIM platform.
//
// The sub-array simulator's host implementation may change (grid storage,
// word-parallel kernels), but what it models must not: every op count, the
// energy/busy doubles (summed in charge order, so exact), the command trace
// of an LFM and the per-row write counts are pinned here as constants,
// recorded from the per-row BitVector simulator before its kernels became
// word-parallel. Any drift in what is charged, in which order, or on which
// rows fails this suite with exact equality.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/genome/synthetic_genome.h"
#include "src/pim/pim_engine.h"
#include "src/pim/trace.h"
#include "src/util/rng.h"

namespace pim::hw {
namespace {

struct Fixture {
  genome::PackedSequence reference;
  index::FmIndex fm;
  TimingEnergyModel timing;
  align::ReadBatch batch;
  align::AlignerOptions options;

  Fixture() {
    genome::SyntheticGenomeSpec spec;
    spec.length = 100000;  // 4 tiles of 32768 BWT rows
    spec.seed = 17;
    reference = genome::generate_reference(spec);
    fm = index::FmIndex::build(reference, {.bucket_width = 128});
    options.inexact.max_diffs = 2;

    // Exact, inexact (1-2 substitutions), reverse-complement and random
    // (unaligned) reads, 60-80 bp.
    util::Xoshiro256 rng(23);
    std::vector<std::vector<genome::Base>> reads;
    for (int i = 0; i < 20; ++i) {
      const std::size_t len = 60 + rng.bounded(21);
      std::vector<genome::Base> read;
      if (i % 5 == 4) {
        for (std::size_t k = 0; k < len; ++k) {
          read.push_back(static_cast<genome::Base>(rng.bounded(4)));
        }
      } else {
        const std::size_t start = rng.bounded(reference.size() - len);
        read = reference.slice(start, start + len);
        if (i % 5 == 1 || i % 5 == 3) {
          const std::size_t subs = 1 + rng.bounded(2);
          for (std::size_t s = 0; s < subs; ++s) {
            const std::size_t pos = rng.bounded(read.size());
            read[pos] = genome::complement(read[pos]);
          }
        }
        if (i % 5 >= 2) read = genome::reverse_complement(read);
      }
      reads.push_back(std::move(read));
    }
    batch = align::ReadBatch::from_reads(reads);
  }
};

void expect_ops(const SubArrayStats& actual, const SubArrayStats& expected) {
  EXPECT_EQ(actual.reads, expected.reads);
  EXPECT_EQ(actual.writes, expected.writes);
  EXPECT_EQ(actual.triple_senses, expected.triple_senses);
  EXPECT_EQ(actual.dpu_word_ops, expected.dpu_word_ops);
  EXPECT_EQ(actual.energy_pj, expected.energy_pj)
      << std::hexfloat << actual.energy_pj;
  EXPECT_EQ(actual.busy_ns, expected.busy_ns)
      << std::hexfloat << actual.busy_ns;
}

struct GoldenRun {
  PimAlignerPlatform::AggregateStats hardware;
  SubArrayStats load;        ///< aggregate_load_stats()
  SubArrayStats tile0_load;  ///< tile(0).load_stats()
};

void expect_run(AddPlacement placement, const GoldenRun& golden,
                const TimingEnergyModel& timing = TimingEnergyModel{}) {
  Fixture f;
  PimAlignerPlatform platform(f.fm, timing, ZoneLayout{}, placement);
  ASSERT_EQ(platform.num_tiles(), 4U);
  align::BatchResult result;
  const HwBatchReport report = PimEngine(platform, f.options).run(f.batch,
                                                                  result);
  const auto& hw = report.hardware;
  expect_ops(hw.ops, golden.hardware.ops);
  EXPECT_EQ(hw.lfm_calls, golden.hardware.lfm_calls);
  EXPECT_EQ(hw.boundary_marker_hits, golden.hardware.boundary_marker_hits);
  EXPECT_EQ(hw.sa_mem_reads, golden.hardware.sa_mem_reads);
  EXPECT_EQ(hw.wfa_wavefronts, golden.hardware.wfa_wavefronts);
  EXPECT_EQ(hw.wfa_cells, golden.hardware.wfa_cells);
  EXPECT_EQ(report.busy_ns, golden.hardware.ops.busy_ns);
  EXPECT_EQ(report.energy_pj, golden.hardware.ops.energy_pj);
  expect_ops(platform.aggregate_load_stats(), golden.load);
  expect_ops(platform.tile(0).load_stats(), golden.tile0_load);
}

/// The fixture batch's alignment tallies. They are the same for both add
/// placements: method II only moves the add half onto duplicate tiles.
PimAlignerPlatform::AggregateStats batch_tallies(double energy_pj,
                                                 double busy_ns) {
  PimAlignerPlatform::AggregateStats hw;
  hw.ops = {.reads = 1169856, .writes = 3418183, .triple_senses = 1162887,
            .dpu_word_ops = 35239, .energy_pj = energy_pj,
            .busy_ns = busy_ns};
  hw.lfm_calls = 36558;
  hw.sa_mem_reads = 26;
  return hw;
}

TEST(PimGolden, MethodIAggregateTallies) {
  expect_run(AddPlacement::kMethodI,
             {.hardware = batch_tallies(0x1.f249bcp+27, 0x1.1b0b94p+23),
              .load = {.writes = 100894, .energy_pj = 0x1.717c2p+22,
                       .busy_ns = 0x1.8a1ep+16},
              .tile0_load = {.writes = 33028, .energy_pj = 0x1.e3cfp+20,
                             .busy_ns = 0x1.0208p+15}});
}

TEST(PimGolden, MethodIIAggregateTallies) {
  expect_run(AddPlacement::kMethodII,
             {.hardware = batch_tallies(0x1.f249bcp+27, 0x1.1b0b94p+23),
              .load = {.writes = 201788, .energy_pj = 0x1.717c2p+23,
                       .busy_ns = 0x1.8a1ep+17},
              .tile0_load = {.writes = 33028, .energy_pj = 0x1.e3cfp+20,
                             .busy_ns = 0x1.0208p+15}});
}

// The default costs are whole numbers, so their sums are exact in any
// order. These are not: a change in the order or number of charges moves
// the energy/busy doubles by at least one ulp.
TEST(PimGolden, FractionalCostsPinChargeOrder) {
  util::Config costs;
  costs.set_double("ReadLatencyNs", 1.1);
  costs.set_double("ReadEnergyPj", 18.3);
  costs.set_double("WriteLatencyNs", 0.7);
  costs.set_double("WriteEnergyPj", 60.1);
  costs.set_double("TripleSenseLatencyNs", 4.3);
  costs.set_double("TripleSenseEnergyPj", 30.7);
  costs.set_double("DpuWordLatencyNs", 1.3);
  costs.set_double("DpuWordEnergyPj", 6.1);
  expect_run(
      AddPlacement::kMethodI,
      {.hardware = batch_tallies(0x1.f52b31fcc5386p+27, 0x1.0a4a45000c9d9p+23),
       .load = {.writes = 100894, .energy_pj = 0x1.7219c5999a843p+22,
                .busy_ns = 0x1.13e1cccccd819p+16},
       .tile0_load = {.writes = 33028, .energy_pj = 0x1.e49d6cccce055p+20,
                      .busy_ns = 0x1.693e666667572p+14}},
      TimingEnergyModel(costs));
}

/// FNV-1a (64-bit) over the rendered trace text.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(PimGolden, OffCheckpointLfmTraceAndRowWrites) {
  Fixture f;
  PimTile tile(f.timing, ZoneLayout{}, f.fm, 32768);
  CommandTrace trace;
  tile.array().attach_trace(&trace);
  tile.array().enable_write_tracking();
  tile.reset_stats();
  const std::uint64_t id = 32768 + 5 * 128 + 77;
  EXPECT_EQ(tile.lfm(genome::Base::G, id), f.fm.lfm(genome::Base::G, id));
  tile.array().attach_trace(nullptr);

  EXPECT_EQ(trace.entries().size(), 163U);
  EXPECT_EQ(fnv1a(trace.to_string()), 17998397667239368878ULL);
  expect_ops(tile.stats(), {.reads = 32, .writes = 97, .triple_senses = 33,
                            .dpu_word_ops = 1, .energy_pj = 0x1.cep+12,
                            .busy_ns = 0x1.06p+8});

  std::vector<std::pair<std::uint32_t, std::uint64_t>> written;
  const auto& counts = tile.array().row_write_counts();
  for (std::uint32_t row = 0; row < counts.size(); ++row) {
    if (counts[row] != 0) written.emplace_back(row, counts[row]);
  }
  // The reserved zone starts at row 388: 32 count-transpose rows and 32
  // sum rows written once each, and the carry row written 1 + 32 times.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> expected;
  for (std::uint32_t row = 388; row < 452; ++row) {
    expected.emplace_back(row, 1);
  }
  expected.emplace_back(452, 33);
  EXPECT_EQ(written, expected);
}

}  // namespace
}  // namespace pim::hw
