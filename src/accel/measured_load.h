// Measured per-chip load for the chip/contention models (S38).
//
// The analytic chip model (pim_aligner_model) and the closed-loop chip
// simulator (chip_sim) both assume a per-read LFM demand (the paper's
// stage-mix average) and a uniform spread of work over chips. A sharded run
// (align::ShardedEngine / hw::PimChipFleet) measures both: per-chip read
// counts, hit skew, wall time, and — on PIM chips — the exact hardware LFM
// tally. This module converts those measurements into model configs, so
// chip-scale projections can be driven by observed load instead of assumed
// averages, and the skew across chips becomes visible in the projections.
#pragma once

#include <cstdint>
#include <vector>

#include "src/accel/chip_sim.h"
#include "src/accel/pim_aligner_model.h"
#include "src/align/sharded_engine.h"

namespace pim::hw {
class PimChipFleet;
}

namespace pim::accel {

/// One chip's measured load from a sharded batch.
struct MeasuredChipLoad {
  std::size_t chip = 0;
  std::uint64_t reads = 0;
  std::uint64_t hits = 0;
  /// Hardware LFM calls this chip executed; 0 for software shards (no
  /// hardware tally), in which case consumers keep their assumed demand.
  std::uint64_t lfm_calls = 0;
  /// WFA extension offset-cells this chip charged (S44); 0 for software
  /// shards and banded-SW runs (extension stayed on the host).
  std::uint64_t wfa_cells = 0;
  double wall_ms = 0.0;
  /// Host->chip staging measured by the fleet's TransferModel (S43); zero
  /// for software shards and transfer-disabled fleets. staging_ns is the
  /// charged transfer time, stall_ns the part double-buffering could not
  /// hide under compute.
  std::uint64_t staged_bytes = 0;
  double staging_ns = 0.0;
  double stall_ns = 0.0;

  /// Average LFM invocations per read; `fallback` when unmeasured.
  double lfm_per_read(double fallback = 0.0) const;
};

/// Shard breakdown -> load rows (software shards: no LFM tally).
std::vector<MeasuredChipLoad> measured_loads(
    const std::vector<align::ShardStats>& shards);

/// Fleet breakdown -> load rows with each chip's hardware LFM tally. Call
/// after engine().align_batch (and after a reset_stats() at batch entry so
/// the tallies cover exactly that batch).
std::vector<MeasuredChipLoad> measured_loads(const hw::PimChipFleet& fleet);

/// Chip-sim config whose per-read service demand and horizon come from the
/// measured chip instead of the assumed averages. Fields of `base` the
/// measurement cannot inform (groups, service_ns, seed) pass through.
ChipSimConfig chip_sim_from_measured(const MeasuredChipLoad& load,
                                     ChipSimConfig base = {});

/// Chip-model config whose LFM stage mix is calibrated from the measured
/// demand: lfm_stage_mix = measured lfm_per_read / (2 * read_length), and —
/// when the chip charged WFA extension work (S44) — wfa_cells_per_read from
/// the measured cell tally. Unmeasured loads (lfm_calls == 0) return `base`
/// unchanged.
ChipModelConfig chip_model_from_measured(const MeasuredChipLoad& load,
                                         std::uint32_t read_length,
                                         ChipModelConfig base = {});

}  // namespace pim::accel
