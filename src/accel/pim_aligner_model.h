// Chip-level PIM-Aligner performance/power/area model — the "behavioral
// simulator" of the paper's evaluation framework, fed by the per-operation
// costs of the TimingEnergyModel and the stage analysis of the
// PipelineModel, scaled analytically to the paper's workload (10M 100-bp
// reads against the 3.2 Gbp Hg19 reference).
//
// Model structure:
//   throughput = pipelines * (1 / initiation_interval(Pd)) / LFMs_per_read
//   power      = memory standby (BWT+MT+SA regions)
//              + duplication power (method-II copies, per extra Pd)
//              + DPU power (per pipeline, per Pd)
//              + controller/routing base
//              + dynamic (LFM rate * energy per LFM)
//   area       = active compute engine: pipelines * Pd sub-arrays + DPUs
//                (the memory region exists anyway — that is the PIM premise;
//                Fig. 9b normalises by the silicon added for computing).
#pragma once

#include <cstdint>

#include "src/accel/metrics.h"
#include "src/pim/pipeline.h"
#include "src/pim/timing_energy.h"

namespace pim::accel {

struct ChipModelConfig {
  // Workload (the paper's evaluation setup).
  double genome_bases = 3.2e9;
  std::uint32_t read_length = 100;
  /// Average LFM invocations per read: 2 per backward-extension step (low
  /// and high), times a stage-mix factor covering the ~30% of reads that
  /// enter the backtracking stage (their extra search states amortised here).
  double lfm_stage_mix = 1.5;
  /// Average WFA extension work per read (offset cells; S44): long-read
  /// seed-and-extend runs its wavefront verification on the DPU/sub-array
  /// resources, so this adds service time and dynamic power on top of the
  /// LFM demand. 0 = short-read workload, no extension verification.
  /// Calibrate from a measured run via chip_model_from_measured.
  double wfa_cells_per_read = 0.0;

  // Provisioning.
  std::uint32_t pipelines = 32;       ///< Concurrent pipeline groups.

  // Power calibration (documented in DESIGN.md; overridable).
  double memory_standby_w_per_gb = 0.857;  ///< NVM periphery standby.
  double duplication_w_per_extra_pd = 6.75;
  double dpu_w_per_pipeline_per_pd = 0.11;
  double controller_base_w = 1.5;

  // Area calibration.
  double dpu_area_mm2 = 0.02;  ///< Per pipeline group (45 nm CMOS).
};

struct ChipReport {
  std::uint32_t pd = 1;
  double throughput_qps = 0.0;
  double power_w = 0.0;
  double engine_area_mm2 = 0.0;
  double memory_gb = 0.0;       ///< Resident BWT+MT+SA footprint (~12-14 GB).
  double offchip_gb = 0.0;      ///< Streams only the queries: ~0.
  double mbr_pct = 0.0;
  double rur_pct = 0.0;
  double energy_per_read_uj = 0.0;
  double lfm_per_read = 0.0;
  double wfa_cells_per_read = 0.0;  ///< Extension demand the model charged.
  std::uint64_t num_tiles = 0;
  hw::PipelineReport pipeline;

  /// As an AcceleratorMetrics row for the comparison tables.
  AcceleratorMetrics as_metrics(const std::string& name) const;
};

class PimChipModel {
 public:
  PimChipModel(const hw::TimingEnergyModel& timing,
               const hw::PipelineConfig& pipeline_config = {},
               const ChipModelConfig& config = {});

  ChipReport evaluate(std::uint32_t pd) const;

  /// Memory footprint of the persisted structures at the configured genome
  /// size: 2-bit BWT + 4x32-bit markers every d + 32-bit SA entries.
  double memory_footprint_gb() const;

  /// Number of computational sub-array tiles covering the BWT.
  std::uint64_t num_tiles() const;

  /// The compute-support area overhead fraction (the paper's <10% claim).
  double compute_area_overhead_fraction() const {
    return timing_->compute_area_overhead_fraction();
  }

  const ChipModelConfig& config() const { return config_; }

 private:
  const hw::TimingEnergyModel* timing_;
  hw::PipelineModel pipeline_model_;
  ChipModelConfig config_;
};

}  // namespace pim::accel
