#include "src/accel/measured_load.h"

#include <algorithm>

#include "src/pim/pim_fleet.h"

namespace pim::accel {

double MeasuredChipLoad::lfm_per_read(double fallback) const {
  if (lfm_calls == 0 || reads == 0) return fallback;
  return static_cast<double>(lfm_calls) / static_cast<double>(reads);
}

std::vector<MeasuredChipLoad> measured_loads(
    const std::vector<align::ShardStats>& shards) {
  std::vector<MeasuredChipLoad> loads;
  loads.reserve(shards.size());
  for (const auto& shard : shards) {
    MeasuredChipLoad load;
    load.chip = shard.shard;
    load.reads = shard.reads;
    load.hits = shard.hits;
    load.wall_ms = shard.wall_ms;
    loads.push_back(load);
  }
  return loads;
}

std::vector<MeasuredChipLoad> measured_loads(const hw::PimChipFleet& fleet) {
  auto loads = measured_loads(fleet.engine().shard_stats());
  const hw::TransferReport transfer = fleet.transfer_report();
  for (std::size_t c = 0; c < loads.size() && c < fleet.num_chips(); ++c) {
    const hw::PimAlignerPlatform::AggregateStats stats = fleet.chip_stats(c);
    loads[c].lfm_calls = stats.lfm_calls;
    loads[c].wfa_cells = stats.wfa_cells;
    if (c < transfer.chips.size()) {
      loads[c].staged_bytes = transfer.chips[c].staged_bytes;
      loads[c].staging_ns = transfer.chips[c].staging_ns;
      loads[c].stall_ns = transfer.chips[c].stall_ns;
    }
  }
  return loads;
}

ChipSimConfig chip_sim_from_measured(const MeasuredChipLoad& load,
                                     ChipSimConfig base) {
  if (load.reads > 0) {
    base.reads_to_complete = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(load.reads, UINT32_MAX));
  }
  const double demand =
      load.lfm_per_read(static_cast<double>(base.lfm_per_read));
  base.lfm_per_read = static_cast<std::uint32_t>(
      std::max(1.0, std::min(demand, 4.0e9)));
  return base;
}

ChipModelConfig chip_model_from_measured(const MeasuredChipLoad& load,
                                         std::uint32_t read_length,
                                         ChipModelConfig base) {
  const double demand = load.lfm_per_read();
  if (demand <= 0.0 || read_length == 0) return base;
  base.read_length = read_length;
  base.lfm_stage_mix = demand / (2.0 * static_cast<double>(read_length));
  if (load.wfa_cells > 0 && load.reads > 0) {
    base.wfa_cells_per_read = static_cast<double>(load.wfa_cells) /
                              static_cast<double>(load.reads);
  }
  return base;
}

}  // namespace pim::accel
