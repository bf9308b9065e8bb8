#include "src/accel/pim_aligner_model.h"

#include <cmath>
#include <stdexcept>

#include "src/pim/mapping.h"

namespace pim::accel {

AcceleratorMetrics ChipReport::as_metrics(const std::string& name) const {
  AcceleratorMetrics m;
  m.name = name;
  m.family = AlgorithmFamily::kFmIndex;
  m.power_w = power_w;
  m.throughput_qps = throughput_qps;
  m.area_mm2 = engine_area_mm2;
  m.offchip_gb = offchip_gb;
  m.mbr_pct = mbr_pct;
  m.rur_pct = rur_pct;
  return m;
}

PimChipModel::PimChipModel(const hw::TimingEnergyModel& timing,
                           const hw::PipelineConfig& pipeline_config,
                           const ChipModelConfig& config)
    : timing_(&timing),
      pipeline_model_(timing, pipeline_config),
      config_(config) {
  if (config_.pipelines == 0 || config_.read_length == 0) {
    throw std::invalid_argument("PimChipModel: bad provisioning");
  }
}

double PimChipModel::memory_footprint_gb() const {
  const double n = config_.genome_bases;
  const double d =
      static_cast<double>(timing_->cols()) / 2.0;  // checkpoint every row
  const double bwt_bytes = n * 2.0 / 8.0;
  const double mt_bytes = n / d * 4.0 * 4.0;  // 4 nt x 4-byte markers
  const double sa_bytes = n * 4.0;  // the full SA, one u32 per base
  return (bwt_bytes + mt_bytes + sa_bytes) / 1e9;
}

std::uint64_t PimChipModel::num_tiles() const {
  const hw::ZoneLayout layout;  // default geometry
  const double per_tile =
      static_cast<double>(layout.bps_per_tile(timing_->cols()));
  return static_cast<std::uint64_t>(std::ceil(config_.genome_bases / per_tile));
}

ChipReport PimChipModel::evaluate(std::uint32_t pd) const {
  if (pd == 0) throw std::invalid_argument("PimChipModel: Pd must be >= 1");
  ChipReport report;
  report.pd = pd;
  report.pipeline = pipeline_model_.evaluate(pd);
  report.num_tiles = num_tiles();
  report.memory_gb = memory_footprint_gb();
  // Queries stream in at 2 bits/bp and results stream out; the index never
  // leaves the memory, so off-chip traffic rounds to zero on the Fig. 10a
  // axis (0.25 GB of reads for the 10M-read workload).
  report.offchip_gb = 0.0;

  report.lfm_per_read =
      2.0 * static_cast<double>(config_.read_length) * config_.lfm_stage_mix;

  const double lfm_rate_total =
      static_cast<double>(config_.pipelines) *
      report.pipeline.lfm_rate_per_group_hz;

  const double lfm_s_per_read = report.lfm_per_read / lfm_rate_total;
  report.throughput_qps = 1.0 / lfm_s_per_read;

  const double lfm_rate_achieved = report.throughput_qps * report.lfm_per_read;
  const double dynamic_w =
      lfm_rate_achieved * report.pipeline.energy_per_lfm_pj * 1e-12;
  const double standby_w =
      report.memory_gb * config_.memory_standby_w_per_gb;
  const double duplication_w =
      static_cast<double>(pd - 1) * config_.duplication_w_per_extra_pd;
  const double dpu_w = static_cast<double>(config_.pipelines) *
                       static_cast<double>(pd) *
                       config_.dpu_w_per_pipeline_per_pd;
  report.power_w = standby_w + duplication_w + dpu_w +
                   config_.controller_base_w + dynamic_w;

  report.engine_area_mm2 =
      static_cast<double>(config_.pipelines) *
          (static_cast<double>(pd) * timing_->subarray_area_mm2() +
           config_.dpu_area_mm2);

  report.mbr_pct = report.pipeline.movement_fraction * 100.0;
  report.rur_pct = report.pipeline.utilization * 100.0;

  report.energy_per_read_uj =
      report.throughput_qps > 0.0
          ? report.power_w / report.throughput_qps * 1e6
          : 0.0;
  return report;
}

}  // namespace pim::accel
