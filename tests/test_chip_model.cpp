#include "src/accel/pim_aligner_model.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/accel/comparison.h"
#include "src/accel/measured_load.h"

namespace pim::accel {
namespace {

hw::TimingEnergyModel& default_timing() {
  static hw::TimingEnergyModel timing;
  return timing;
}

TEST(ChipModel, MemoryFootprintMatchesPaperScale) {
  // The paper: BWT + MT + SA "will consume ~12GB of memory space".
  const PimChipModel model(default_timing());
  EXPECT_NEAR(model.memory_footprint_gb(), 14.0, 2.5);
}

TEST(ChipModel, TileCountCoversHg19) {
  const PimChipModel model(default_timing());
  // 3.2e9 / 32768 bps per tile ~ 97'657 computational sub-arrays.
  EXPECT_NEAR(static_cast<double>(model.num_tiles()), 97657.0, 2.0);
}

TEST(ChipModel, AreaOverheadClaim) {
  const PimChipModel model(default_timing());
  EXPECT_LT(model.compute_area_overhead_fraction(), 0.10);
}

TEST(ChipModel, Pd2MatchesPaperAnnotations) {
  // Fig. 9c annotates Pd=2 with 28.4 W and 6.7e6 queries/s.
  const PimChipModel model(default_timing());
  const ChipReport r = model.evaluate(2);
  EXPECT_NEAR(r.power_w, 28.4, 2.0);
  EXPECT_NEAR(r.throughput_qps, 6.7e6, 0.4e6);
}

TEST(ChipModel, PipelineGainIsFortyPercent) {
  const PimChipModel model(default_timing());
  const double gain =
      model.evaluate(2).throughput_qps / model.evaluate(1).throughput_qps;
  EXPECT_NEAR(gain, 1.4, 0.1);
}

TEST(ChipModel, PowerAndThroughputRiseWithPd) {
  // Fig. 9c: "by increasing the Pd, both power consumption and throughput
  // will increase".
  const PimChipModel model(default_timing());
  double prev_power = 0.0, prev_tp = 0.0;
  for (std::uint32_t pd = 1; pd <= 4; ++pd) {
    const ChipReport r = model.evaluate(pd);
    EXPECT_GT(r.power_w, prev_power) << pd;
    EXPECT_GE(r.throughput_qps, prev_tp - 1.0) << pd;
    prev_power = r.power_w;
    prev_tp = r.throughput_qps;
  }
}

TEST(ChipModel, MbrUnderEighteenPercent) {
  const PimChipModel model(default_timing());
  for (std::uint32_t pd = 1; pd <= 2; ++pd) {
    EXPECT_LT(model.evaluate(pd).mbr_pct, 18.0);
    EXPECT_GT(model.evaluate(pd).mbr_pct, 0.0);
  }
}

TEST(ChipModel, RurMatchesPaper) {
  const PimChipModel model(default_timing());
  EXPECT_NEAR(model.evaluate(2).rur_pct, 86.0, 2.0);
  EXPECT_LT(model.evaluate(1).rur_pct, model.evaluate(2).rur_pct);
}

TEST(ChipModel, OffchipIsZero) {
  const PimChipModel model(default_timing());
  EXPECT_DOUBLE_EQ(model.evaluate(2).offchip_gb, 0.0);
}

TEST(ChipModel, BadArgsThrow) {
  ChipModelConfig cfg;
  cfg.pipelines = 0;
  EXPECT_THROW(PimChipModel(default_timing(), {}, cfg), std::invalid_argument);
  const PimChipModel model(default_timing());
  EXPECT_THROW(model.evaluate(0), std::invalid_argument);
}

TEST(ChipModel, AsMetricsCopiesFields) {
  const PimChipModel model(default_timing());
  const ChipReport r = model.evaluate(2);
  const AcceleratorMetrics m = r.as_metrics("PIM-Aligner-p");
  EXPECT_EQ(m.name, "PIM-Aligner-p");
  EXPECT_DOUBLE_EQ(m.power_w, r.power_w);
  EXPECT_DOUBLE_EQ(m.throughput_qps, r.throughput_qps);
  EXPECT_DOUBLE_EQ(m.area_mm2, r.engine_area_mm2);
}

TEST(ChipModel, ReportBitsArePinned) {
  // The figure benches print these doubles. Even an algebraically equal
  // rewrite of the model (dividing in another order, say) can move them by
  // an ulp, so they are pinned bit for bit.
  struct Pinned {
    double throughput_qps, power_w, energy_per_read_uj;
  };
  auto expect_bits = [](const PimChipModel& model, std::uint32_t pd,
                        const Pinned& want) {
    const ChipReport r = model.evaluate(pd);
    EXPECT_EQ(r.throughput_qps, want.throughput_qps) << "Pd " << pd;
    EXPECT_EQ(r.power_w, want.power_w) << "Pd " << pd;
    EXPECT_EQ(r.energy_per_read_uj, want.energy_per_read_uj) << "Pd " << pd;
  };
  const PimChipModel model(default_timing());
  expect_bits(model, 1, {0x1.1a4b63abd2ac9p+22, 0x1.1b8f7178f7179p+4,
                         0x1.ea7883126e978p+1});
  expect_bits(model, 2, {0x1.9551595159515p+22, 0x1.c6b48f067a8b9p+4,
                         0x1.11e38ef34d6a1p+2});
  expect_bits(model, 3, {0x1.0ddca0f086694p+23, 0x1.39c95f5d5935cp+5,
                         0x1.1be0faacd9e83p+2});
  expect_bits(model, 4, {0x1.0ddca0f086694p+23, 0x1.8d38508fce40fp+5,
                         0x1.675c25aee631fp+2});

  // The PIM engine's measured demand on the paper's workload: 1892 LFM
  // calls per 100-bp read.
  MeasuredChipLoad load;
  load.reads = 1024;
  load.lfm_calls = 1892ULL * 1024;
  const PimChipModel measured(default_timing(), {},
                              chip_model_from_measured(load, 100));
  expect_bits(measured, 1, {0x1.66171b636dbe2p+19, 0x1.1b8f7178f7179p+4,
                            0x1.82a7897635e75p+4});
  expect_bits(measured, 2, {0x1.011294a880176p+20, 0x1.c6b48f067a8b9p+4,
                            0x1.afd4dd1e53a84p+4});
}

// --- Comparison table & headline ratios -------------------------------------

TEST(Comparison, TableHasTenPlatforms) {
  const ComparisonTable table = build_default_comparison();
  EXPECT_EQ(table.rows.size(), 10U);
  EXPECT_NO_THROW(table.row("Darwin"));
  EXPECT_NO_THROW(table.row("PIM-Aligner-p"));
  EXPECT_THROW(table.row("nope"), std::out_of_range);
}

TEST(Comparison, HeadlineRatiosNearPaper) {
  const ComparisonTable table = build_default_comparison();
  const HeadlineRatios r = compute_headline_ratios(table);
  EXPECT_NEAR(r.tpw_vs_racelogic, 3.1, 0.5);   // "~3.1x higher"
  EXPECT_NEAR(r.tpw_vs_asic, 2.0, 0.4);        // "~2x"
  EXPECT_NEAR(r.tpw_vs_fpga, 43.8, 7.0);       // "43.8x"
  EXPECT_NEAR(r.tpw_vs_gpu, 458.0, 70.0);      // "458x"
  EXPECT_NEAR(r.tpwa_vs_asic, 9.0, 1.5);       // "~9x"
  EXPECT_NEAR(r.tpwa_vs_aligner, 1.9, 0.4);    // "1.9x"
  EXPECT_NEAR(r.pipeline_gain, 1.4, 0.1);      // "~40%"
}

TEST(Comparison, QualitativeOrderings) {
  const ComparisonTable table = build_default_comparison();
  // AlignS achieves the highest throughput/Watt; PIM-Aligner-n is second.
  const double pim_n = table.row("PIM-Aligner-n").throughput_per_watt();
  EXPECT_GT(table.row("AlignS").throughput_per_watt(), pim_n);
  for (const auto& row : table.rows) {
    if (row.name == "AlignS" || row.name == "PIM-Aligner-n") continue;
    EXPECT_LT(row.throughput_per_watt(), pim_n) << row.name;
  }
  // RaceLogic is the only platform faster than PIM-Aligner-p (Fig. 8b).
  const double pim_p_tp = table.row("PIM-Aligner-p").throughput_qps;
  for (const auto& row : table.rows) {
    if (row.name == "RaceLogic" || row.name == "PIM-Aligner-p") continue;
    EXPECT_LT(row.throughput_qps, pim_p_tp) << row.name;
  }
  // PIM-Aligner leads every platform in throughput/Watt/mm2 (Fig. 9b).
  const double pim_p_tpwa =
      table.row("PIM-Aligner-p").throughput_per_watt_per_mm2();
  for (const auto& row : table.rows) {
    if (row.name.rfind("PIM-Aligner", 0) == 0) continue;
    EXPECT_LT(row.throughput_per_watt_per_mm2(), pim_p_tpwa) << row.name;
  }
  // PIMs need no off-chip memory; GPU and FPGA rely on it heavily (Fig. 10a).
  EXPECT_EQ(table.row("PIM-Aligner-p").offchip_gb, 0.0);
  EXPECT_EQ(table.row("AlignS").offchip_gb, 0.0);
  EXPECT_GT(table.row("GPU").offchip_gb, 50.0);
  EXPECT_GT(table.row("FPGA").offchip_gb, 50.0);
  EXPECT_DOUBLE_EQ(table.row("ASIC").offchip_gb, 1.0);  // stated in the text
  // PIM platforms spend < 25% of time on memory waits (Fig. 10b).
  for (const auto& name : {"AligneR", "AlignS", "PIM-Aligner-n",
                           "PIM-Aligner-p"}) {
    EXPECT_LT(table.row(name).mbr_pct, 25.0) << name;
  }
  // PIM-Aligner-p has the highest resource utilization (Fig. 10c).
  const double pim_p_rur = table.row("PIM-Aligner-p").rur_pct;
  for (const auto& row : table.rows) {
    if (row.name == "PIM-Aligner-p") continue;
    EXPECT_LT(row.rur_pct, pim_p_rur) << row.name;
  }
}

TEST(Baselines, LookupByName) {
  EXPECT_NEAR(baseline("ASIC").power_w, 0.135, 1e-9);
  EXPECT_EQ(baseline("Darwin").family, AlgorithmFamily::kSmithWaterman);
  EXPECT_EQ(baseline("GPU").family, AlgorithmFamily::kFmIndex);
  EXPECT_THROW(baseline("missing"), std::out_of_range);
}

}  // namespace
}  // namespace pim::accel
