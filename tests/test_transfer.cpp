// S43: host<->PIM staging model, double-buffered overlap, and the
// safe-mid-run-scrape contract.
//   * TransferModel pricing (packed payload, serialization floor, off-chip
//     word energy) and config validation;
//   * StagingTimeline single- vs double-buffer semantics, including the
//     generation-0 fill stall;
//   * PimChipFleet charging: determinism across reruns (model time, never
//     wall clock), overlapped < serial with >= 2 generations, the disabled
//     ablation, and the fleet.transfer.* gauge surface;
//   * chip_stats / transfer_report / publish_metrics concurrent with a LIVE
//     align_batch — the pre-S43 data race, now seqlock-published. This test
//     runs in the TSan CI job.
#include "src/pim/transfer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/genome/synthetic_genome.h"
#include "src/obs/metrics.h"
#include "src/pim/pim_fleet.h"
#include "src/util/rng.h"

namespace pim::hw {
namespace {

TEST(TransferModel, ReadBytesPacksTwoBitBases) {
  const TransferModel model;
  // ceil(bases / 4) packed bytes + the 8-byte per-read descriptor.
  EXPECT_EQ(model.read_bytes(100), 25u + 8u);
  EXPECT_EQ(model.read_bytes(101), 26u + 8u);
  EXPECT_EQ(model.read_bytes(1), 1u + 8u);
  EXPECT_EQ(model.read_bytes(0), 8u);  // descriptor still ships
}

TEST(TransferModel, StagingCostPricing) {
  const TransferModel model;
  const StagingCost cost = model.staging_cost(1 << 20);  // 1 MiB
  EXPECT_EQ(cost.bytes, 1u << 20);
  EXPECT_EQ(cost.words, (1u << 20) / 4);
  // 16 GB/s == 16 bytes/ns.
  EXPECT_NEAR(cost.wire_ns, static_cast<double>(1 << 20) / 16.0, 1e-9);
  EXPECT_DOUBLE_EQ(cost.serialization_ns, 1500.0);
  EXPECT_NEAR(cost.latency_ns, cost.serialization_ns + cost.wire_ns, 1e-9);
  // Wire energy is the interconnect's off-chip word price — same currency
  // as every other cross-hierarchy transfer in the chip model.
  const double expected_pj =
      model.interconnect()
          .transfer_cost(cost.words, HopLevel::kOffChip)
          .energy_pj;
  EXPECT_DOUBLE_EQ(cost.energy_pj, expected_pj);
}

TEST(TransferModel, ZeroBytesIsPricedNoOp) {
  const TransferModel model;
  const StagingCost cost = model.staging_cost(0);
  EXPECT_EQ(cost.bytes, 0u);
  EXPECT_EQ(cost.words, 0u);
  // No DMA issued: not even the serialization floor applies.
  EXPECT_DOUBLE_EQ(cost.serialization_ns, 0.0);
  EXPECT_DOUBLE_EQ(cost.latency_ns, 0.0);
  EXPECT_DOUBLE_EQ(cost.energy_pj, 0.0);
}

TEST(TransferModel, ConfigOverridesApply) {
  util::Config over;
  over.set_double("HostLinkBandwidthGBs", 2.0);
  over.set_double("BatchSerializationNs", 0.0);
  over.set_int("PerReadHeaderBytes", 0);
  const TransferModel model(over);
  EXPECT_DOUBLE_EQ(model.bandwidth_gbs(), 2.0);
  EXPECT_EQ(model.read_bytes(100), 25u);
  const StagingCost cost = model.staging_cost(1000);
  EXPECT_NEAR(cost.latency_ns, 500.0, 1e-9);  // pure wire time at 2 B/ns
}

TEST(TransferModel, BadConfigRejectedNamingKey) {
  for (const double bad :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    util::Config over;
    over.set_double("HostLinkBandwidthGBs", bad);
    try {
      TransferModel model(over);
      FAIL() << "accepted HostLinkBandwidthGBs = " << bad;
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find("HostLinkBandwidthGBs"),
                std::string::npos)
          << err.what();
    }
  }
  util::Config negative;
  negative.set_double("BatchSerializationNs", -1.0);
  EXPECT_THROW(TransferModel{negative}, std::invalid_argument);
  util::Config header;
  header.set_int("PerReadHeaderBytes", -8);
  EXPECT_THROW(TransferModel{header}, std::invalid_argument);
}

TEST(StagingTimeline, SingleBufferSerializesEveryGeneration) {
  StagingTimeline timeline(/*double_buffer=*/false);
  for (int g = 0; g < 3; ++g) {
    const auto gen = timeline.advance(10.0, 20.0);
    EXPECT_DOUBLE_EQ(gen.stall_ns, 10.0);  // every transfer is exposed
  }
  EXPECT_DOUBLE_EQ(timeline.serial_sum_ns(), 90.0);
  EXPECT_DOUBLE_EQ(timeline.makespan_ns(), 90.0);  // no overlap at all
}

TEST(StagingTimeline, DoubleBufferHidesTransferUnderCompute) {
  StagingTimeline timeline(/*double_buffer=*/true);
  // Compute-bound: T=10 < C=20. Only generation 0's fill stalls.
  const auto g0 = timeline.advance(10.0, 20.0);
  EXPECT_DOUBLE_EQ(g0.stall_ns, 10.0);  // pipeline fill is a true stall
  const auto g1 = timeline.advance(10.0, 20.0);
  EXPECT_DOUBLE_EQ(g1.stall_ns, 0.0);  // staged while g0 computed
  const auto g2 = timeline.advance(10.0, 20.0);
  EXPECT_DOUBLE_EQ(g2.stall_ns, 0.0);
  EXPECT_DOUBLE_EQ(timeline.makespan_ns(), 70.0);  // 10 fill + 3 x 20
  EXPECT_DOUBLE_EQ(timeline.serial_sum_ns(), 90.0);
  EXPECT_LT(timeline.makespan_ns(), timeline.serial_sum_ns());
}

TEST(StagingTimeline, TransferBoundStallsAtLinkRate) {
  StagingTimeline timeline(/*double_buffer=*/true);
  // Transfer-bound: T=30 > C=10. Steady state is paced by the link: each
  // generation stalls T - C = 20 after the fill.
  const auto g0 = timeline.advance(30.0, 10.0);
  EXPECT_DOUBLE_EQ(g0.stall_ns, 30.0);
  const auto g1 = timeline.advance(30.0, 10.0);
  EXPECT_DOUBLE_EQ(g1.stall_ns, 20.0);
  const auto g2 = timeline.advance(30.0, 10.0);
  EXPECT_DOUBLE_EQ(g2.stall_ns, 20.0);
  EXPECT_DOUBLE_EQ(timeline.makespan_ns(), 100.0);  // 30 + 3 x 10 + 2 x 20
  EXPECT_LT(timeline.makespan_ns(), timeline.serial_sum_ns());  // 120
}

TEST(StagingTimeline, ResetClearsTheClock) {
  StagingTimeline timeline;
  timeline.advance(5.0, 5.0);
  timeline.reset();
  EXPECT_EQ(timeline.generations(), 0u);
  EXPECT_DOUBLE_EQ(timeline.makespan_ns(), 0.0);
  const auto gen = timeline.advance(5.0, 5.0);
  EXPECT_DOUBLE_EQ(gen.transfer_start_ns, 0.0);
}

// ---------------------------------------------------------------------------
// Fleet integration.

std::vector<std::vector<genome::Base>> make_reads(
    const genome::PackedSequence& reference, std::size_t count,
    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<genome::Base>> reads;
  reads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = 48 + rng.bounded(33);
    const std::size_t start = rng.bounded(reference.size() - len);
    reads.push_back(reference.slice(start, start + len));
  }
  return reads;
}

struct FleetFixture {
  genome::PackedSequence reference;
  index::FmIndex fm;
  TimingEnergyModel timing;
  align::ReadBatch batch;

  explicit FleetFixture(std::size_t num_reads = 96) {
    genome::SyntheticGenomeSpec spec;
    spec.length = 20000;
    spec.seed = 7;
    reference = genome::generate_reference(spec);
    fm = index::FmIndex::build(reference, {.bucket_width = 128});
    batch = align::ReadBatch::from_reads(make_reads(reference, num_reads, 3));
  }
};

TEST(FleetTransfer, ChargesEveryGeneration) {
  FleetFixture f;
  PimChipFleet fleet(f.fm, f.timing, 2);
  align::BatchResult out;
  fleet.engine().align_batch(f.batch, out);
  fleet.engine().align_batch(f.batch, out);

  const TransferReport report = fleet.transfer_report();
  EXPECT_EQ(report.generations, 2u);
  ASSERT_EQ(report.chips.size(), 2u);
  // Every read's packed payload + descriptor crossed the link, twice.
  std::uint64_t expected_bytes = 0;
  for (std::size_t i = 0; i < f.batch.size(); ++i) {
    expected_bytes += fleet.transfer_model().read_bytes(f.batch.read_length(i));
  }
  EXPECT_EQ(report.staged_bytes, 2 * expected_bytes);
  EXPECT_GT(report.staging_ns, 0.0);
  EXPECT_GT(report.energy_pj, 0.0);
  EXPECT_GT(report.compute_ns, 0.0);
  EXPECT_GT(report.overlapped_ns, 0.0);
  EXPECT_GE(report.overlap_ratio, 0.0);
  EXPECT_LE(report.overlap_ratio, 1.0);
  for (const auto& chip : report.chips) {
    EXPECT_EQ(chip.generations, 2u);
    EXPECT_GT(chip.staged_bytes, 0u);
  }
}

TEST(FleetTransfer, DoubleBufferBeatsSerialWithTwoGenerations) {
  FleetFixture f;
  PimChipFleet fleet(f.fm, f.timing, 2);
  ASSERT_TRUE(fleet.transfer_options().double_buffer);
  align::BatchResult out;
  fleet.engine().align_batch(f.batch, out);
  fleet.engine().align_batch(f.batch, out);
  const TransferReport report = fleet.transfer_report();
  // The acceptance criterion: modeled end-to-end time with double buffering
  // strictly below the non-overlapped transfer + compute sum.
  EXPECT_LT(report.overlapped_ns, report.serial_ns);
}

TEST(FleetTransfer, SingleBufferNeverOverlaps) {
  FleetFixture f;
  TransferOptions opts;
  opts.double_buffer = false;
  PimChipFleet fleet(f.fm, f.timing, 2, {}, {}, AddPlacement::kMethodI, {},
                     opts);
  align::BatchResult out;
  fleet.engine().align_batch(f.batch, out);
  fleet.engine().align_batch(f.batch, out);
  const TransferReport report = fleet.transfer_report();
  // One landing buffer: the pipeline degenerates to the serial sum, and the
  // whole staging time is exposed as stall.
  EXPECT_DOUBLE_EQ(report.overlapped_ns, report.serial_ns);
  for (const auto& chip : report.chips) {
    EXPECT_NEAR(chip.stall_ns, chip.staging_ns, 1e-6);
  }
}

TEST(FleetTransfer, DeterministicAcrossReruns) {
  FleetFixture f;
  auto run = [&f]() {
    PimChipFleet fleet(f.fm, f.timing, 3);
    align::BatchResult out;
    fleet.engine().align_batch(f.batch, out);
    fleet.engine().align_batch(f.batch, out);
    return fleet.transfer_report();
  };
  const TransferReport a = run();
  const TransferReport b = run();
  // Model time, never wall clock: reruns are bit-identical even though the
  // shard threads schedule differently.
  EXPECT_EQ(a.staged_bytes, b.staged_bytes);
  EXPECT_DOUBLE_EQ(a.staging_ns, b.staging_ns);
  EXPECT_DOUBLE_EQ(a.energy_pj, b.energy_pj);
  EXPECT_DOUBLE_EQ(a.compute_ns, b.compute_ns);
  EXPECT_DOUBLE_EQ(a.stall_ns, b.stall_ns);
  EXPECT_DOUBLE_EQ(a.overlapped_ns, b.overlapped_ns);
  EXPECT_DOUBLE_EQ(a.serial_ns, b.serial_ns);
  ASSERT_EQ(a.chips.size(), b.chips.size());
  for (std::size_t c = 0; c < a.chips.size(); ++c) {
    EXPECT_EQ(a.chips[c].staged_bytes, b.chips[c].staged_bytes);
    EXPECT_DOUBLE_EQ(a.chips[c].makespan_ns, b.chips[c].makespan_ns);
  }
}

TEST(FleetTransfer, ResetStatsClearsTransferTallies) {
  FleetFixture f;
  PimChipFleet fleet(f.fm, f.timing, 2);
  align::BatchResult out;
  fleet.engine().align_batch(f.batch, out);
  EXPECT_GT(fleet.transfer_report().staged_bytes, 0u);
  fleet.reset_stats();
  const TransferReport report = fleet.transfer_report();
  EXPECT_EQ(report.generations, 0u);
  EXPECT_EQ(report.staged_bytes, 0u);
  EXPECT_DOUBLE_EQ(report.overlapped_ns, 0.0);
}

TEST(FleetTransfer, PublishesTransferGauges) {
  FleetFixture f;
  PimChipFleet fleet(f.fm, f.timing, 2);
  align::BatchResult out;
  fleet.engine().align_batch(f.batch, out);
  obs::MetricsRegistry registry;
  fleet.publish_metrics(registry);
  const obs::MetricsSnapshot snap = registry.scrape();
  const TransferReport report = fleet.transfer_report();
  EXPECT_DOUBLE_EQ(snap.gauge_value("fleet.transfer.staged_bytes"),
                   static_cast<double>(report.staged_bytes));
  EXPECT_DOUBLE_EQ(snap.gauge_value("fleet.transfer.staging_ns"),
                   report.staging_ns);
  EXPECT_DOUBLE_EQ(snap.gauge_value("fleet.transfer.overlapped_ns"),
                   report.overlapped_ns);
  EXPECT_DOUBLE_EQ(snap.gauge_value("fleet.transfer.serial_ns"),
                   report.serial_ns);
  EXPECT_DOUBLE_EQ(snap.gauge_value("fleet.transfer.overlap_ratio"),
                   report.overlap_ratio);
  EXPECT_DOUBLE_EQ(snap.gauge_value("fleet.transfer.generations"), 1.0);
  EXPECT_GT(snap.gauge_value("fleet.transfer.chip.0.staged_bytes"), 0.0);
  EXPECT_GT(snap.gauge_value("fleet.transfer.chip.1.staged_bytes"), 0.0);
}

TEST(FleetTransfer, ScrapeDuringLiveAlignIsSafe) {
  // The S43 headline race, exercised: one thread drives align_batch while
  // another scrapes chip_stats / transfer_report / publish_metrics. Before
  // S43 this was a data race on the chips' raw tallies (TSan flagged it);
  // now every cross-thread read goes through a seqlock-published snapshot.
  // This test is in the TSan CI job's run list.
  FleetFixture f(160);
  PimChipFleet fleet(f.fm, f.timing, 2);
  obs::MetricsRegistry registry;
  std::atomic<bool> done{false};

  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      fleet.publish_metrics(registry);
      const auto stats = fleet.chip_stats(0);
      const auto report = fleet.transfer_report();
      // Snapshots are internally consistent even mid-run.
      EXPECT_GE(stats.ops.busy_ns, 0.0);
      EXPECT_GE(report.staging_ns, 0.0);
    }
  });

  align::BatchResult out;
  for (int gen = 0; gen < 4; ++gen) {
    fleet.engine().align_batch(f.batch, out);
  }
  done.store(true, std::memory_order_release);
  scraper.join();

  // Quiescent now: the published snapshots have caught up exactly.
  const TransferReport report = fleet.transfer_report();
  EXPECT_EQ(report.generations, 4u);
  fleet.publish_metrics(registry);
  EXPECT_DOUBLE_EQ(registry.scrape().gauge_value("fleet.transfer.generations"),
                   4.0);
}

}  // namespace
}  // namespace pim::hw
