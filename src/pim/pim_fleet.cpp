#include "src/pim/pim_fleet.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pim::hw {

// ShardedEngine with the S43 staging charge bracketed around every
// generation. The partition is captured BEFORE the fan-out (rebalance may
// move the boundaries afterwards), the charge is settled after the join —
// on the single driving thread, so the busy_ns reads and seqlock stores
// are race-free by the ShardedEngine thread model.
class PimChipFleet::FleetEngine final : public align::ShardedEngine {
 public:
  FleetEngine(PimChipFleet* fleet,
              std::vector<const align::AlignmentEngine*> shards,
              align::ShardedOptions options)
      : align::ShardedEngine(std::move(shards), options), fleet_(fleet) {}

  std::string_view name() const override { return "pim-fleet"; }

  void align_range(const align::ReadBatch& batch, std::size_t begin,
                   std::size_t end, align::BatchResult& out) const override {
    const auto bounds = partition(end - begin);
    align::ShardedEngine::align_range(batch, begin, end, out);
    fleet_->charge_generation(batch, begin, bounds);
  }

  align::EngineStats align_batch_chunked(
      const align::ReadBatch& batch, const align::ChunkSink& sink,
      const align::ParallelOptions& options) const override {
    const auto bounds = partition(batch.size());
    align::EngineStats stats =
        align::ShardedEngine::align_batch_chunked(batch, sink, options);
    fleet_->charge_generation(batch, 0, bounds);
    return stats;
  }

 private:
  PimChipFleet* fleet_;
};

PimChipFleet::PimChipFleet(const index::FmIndex& fm,
                           const TimingEnergyModel& timing,
                           std::size_t num_chips,
                           align::AlignerOptions options, ZoneLayout layout,
                           AddPlacement placement,
                           align::ShardedOptions sharding,
                           TransferOptions transfer)
    : timing_(&timing),
      transfer_options_(std::move(transfer)),
      transfer_model_(transfer_options_.config) {
  if (num_chips == 0) {
    throw std::invalid_argument("PimChipFleet: need at least one chip");
  }
  platforms_.reserve(num_chips);
  engines_.reserve(num_chips);
  transfer_state_.reserve(num_chips);
  std::vector<const align::AlignmentEngine*> shards;
  shards.reserve(num_chips);
  for (std::size_t c = 0; c < num_chips; ++c) {
    platforms_.push_back(
        std::make_unique<PimAlignerPlatform>(fm, timing, layout, placement));
    engines_.push_back(std::make_unique<PimEngine>(*platforms_[c], options));
    shards.push_back(engines_[c].get());
    transfer_state_.push_back(std::make_unique<ChipTransferState>(
        transfer_options_.double_buffer));
  }
  busy_baseline_ns_.assign(num_chips, 0.0);
  sharded_ = std::make_unique<FleetEngine>(this, std::move(shards), sharding);
}

PimChipFleet::~PimChipFleet() = default;

align::ShardedEngine& PimChipFleet::engine() { return *sharded_; }
const align::ShardedEngine& PimChipFleet::engine() const { return *sharded_; }

void PimChipFleet::reset_stats() {
  for (auto& platform : platforms_) platform->reset_stats();
  for (auto& state : transfer_state_) {
    state->timeline.reset();
    state->tally = ChipTransferStats{};
    state->published.store(state->tally);
  }
  busy_baseline_ns_.assign(platforms_.size(), 0.0);
  fleet_generations_.store(0, std::memory_order_relaxed);
}

void PimChipFleet::charge_generation(const align::ReadBatch& batch,
                                     std::size_t begin,
                                     const std::vector<std::size_t>& bounds) {
  for (std::size_t c = 0; c < platforms_.size(); ++c) {
    // The shard's wire payload: 2-bit-packed bases + per-read descriptor.
    std::uint64_t bytes = 0;
    for (std::size_t i = begin + bounds[c]; i < begin + bounds[c + 1]; ++i) {
      bytes += transfer_model_.read_bytes(batch.read_length(i));
    }
    // The generation's modeled compute: this chip's busy_ns delta. The
    // driving threads have joined, so aggregate_stats() is exact here.
    const double busy_now = platforms_[c]->aggregate_stats().ops.busy_ns;
    const double compute_ns =
        std::max(0.0, busy_now - busy_baseline_ns_[c]);
    busy_baseline_ns_[c] = busy_now;
    if (bytes == 0 && compute_ns <= 0.0) continue;  // nothing staged or run

    const StagingCost cost = transfer_model_.staging_cost(bytes);
    ChipTransferState& state = *transfer_state_[c];
    const StagingTimeline::Generation gen =
        state.timeline.advance(cost.latency_ns, compute_ns);

    ChipTransferStats& tally = state.tally;
    ++tally.generations;
    tally.staged_bytes += cost.bytes;
    tally.staged_words += cost.words;
    tally.staging_ns += cost.latency_ns;
    tally.serialization_ns += cost.serialization_ns;
    tally.energy_pj += cost.energy_pj;
    tally.compute_ns += compute_ns;
    tally.stall_ns += gen.stall_ns;
    tally.makespan_ns = state.timeline.makespan_ns();
    tally.serial_ns = state.timeline.serial_sum_ns();
    state.published.store(tally);
  }
  fleet_generations_.fetch_add(1, std::memory_order_relaxed);
}

TransferReport PimChipFleet::transfer_report() const {
  TransferReport report;
  report.chips.reserve(transfer_state_.size());
  report.generations = fleet_generations_.load(std::memory_order_relaxed);
  for (const auto& state : transfer_state_) {
    const ChipTransferStats chip = state->published.load();
    report.staged_bytes += chip.staged_bytes;
    report.staging_ns += chip.staging_ns;
    report.energy_pj += chip.energy_pj;
    report.compute_ns += chip.compute_ns;
    report.stall_ns += chip.stall_ns;
    report.overlapped_ns = std::max(report.overlapped_ns, chip.makespan_ns);
    report.serial_ns = std::max(report.serial_ns, chip.serial_ns);
    report.chips.push_back(chip);
  }
  report.overlap_ratio =
      report.staging_ns > 0.0
          ? std::max(0.0, 1.0 - report.stall_ns / report.staging_ns)
          : 0.0;
  return report;
}

double PimChipFleet::staging_stall_ns() const {
  double stall_ns = 0.0;
  for (const auto& state : transfer_state_) {
    stall_ns += state->published.load().stall_ns;
  }
  return stall_ns;
}

void PimChipFleet::publish_metrics(obs::MetricsRegistry& registry) const {
  const double clock_ghz = timing_->clock_ghz();
  double fleet_cycles = 0.0;
  double fleet_energy_pj = 0.0;
  std::uint64_t fleet_lfm_calls = 0;
  for (std::size_t c = 0; c < platforms_.size(); ++c) {
    // The seqlock-published snapshot, NOT the raw tallies: chips may be
    // aligning right now (S43).
    const PimAlignerPlatform::AggregateStats stats =
        platforms_[c]->stats_snapshot();
    // busy_ns is serial sub-array occupancy; at the model clock that is the
    // chip's cycle count for the routed reads.
    const double cycles = stats.ops.busy_ns * clock_ghz;
    const std::string prefix = "chip." + std::to_string(c) + ".";
    registry.gauge(prefix + "cycles").set(cycles);
    registry.gauge(prefix + "energy_pj").set(stats.ops.energy_pj);
    registry.gauge(prefix + "lfm_calls")
        .set(static_cast<double>(stats.lfm_calls));
    registry.gauge(prefix + "sa_reads")
        .set(static_cast<double>(stats.ops.reads));
    fleet_cycles += cycles;
    fleet_energy_pj += stats.ops.energy_pj;
    fleet_lfm_calls += stats.lfm_calls;
  }
  registry.gauge("fleet.chips").set(static_cast<double>(platforms_.size()));
  registry.gauge("fleet.cycles").set(fleet_cycles);
  registry.gauge("fleet.energy_pj").set(fleet_energy_pj);
  registry.gauge("fleet.lfm_calls").set(static_cast<double>(fleet_lfm_calls));

  // S43 transfer series (same snapshot discipline).
  const TransferReport transfer = transfer_report();
  for (std::size_t c = 0; c < transfer.chips.size(); ++c) {
    const ChipTransferStats& chip = transfer.chips[c];
    const std::string prefix =
        "fleet.transfer.chip." + std::to_string(c) + ".";
    registry.gauge(prefix + "staged_bytes")
        .set(static_cast<double>(chip.staged_bytes));
    registry.gauge(prefix + "staging_ns").set(chip.staging_ns);
    registry.gauge(prefix + "stall_ns").set(chip.stall_ns);
  }
  registry.gauge("fleet.transfer.generations")
      .set(static_cast<double>(transfer.generations));
  registry.gauge("fleet.transfer.staged_bytes")
      .set(static_cast<double>(transfer.staged_bytes));
  registry.gauge("fleet.transfer.staging_ns").set(transfer.staging_ns);
  registry.gauge("fleet.transfer.energy_pj").set(transfer.energy_pj);
  registry.gauge("fleet.transfer.compute_ns").set(transfer.compute_ns);
  registry.gauge("fleet.transfer.stall_ns").set(transfer.stall_ns);
  registry.gauge("fleet.transfer.overlapped_ns").set(transfer.overlapped_ns);
  registry.gauge("fleet.transfer.serial_ns").set(transfer.serial_ns);
  registry.gauge("fleet.transfer.overlap_ratio").set(transfer.overlap_ratio);
}

}  // namespace pim::hw
