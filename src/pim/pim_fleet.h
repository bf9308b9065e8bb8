// A fleet of simulated SOT-MRAM chips behind one ShardedEngine (S38).
//
// The paper evaluates PIM-Aligner at chip scale; PimChipFleet builds that
// configuration for the simulator: N independent PimAlignerPlatform
// instances over one shared FM-index (each chip owns its tiles, DPU
// registers, and op/energy tallies) wrapped in N PimEngines and exposed as
// a single align::ShardedEngine. A batch fanned through engine() runs one
// contiguous read range per chip — concurrently, since the chips share no
// mutable state — and results stitch back bit-identical to a single-chip
// (or pure software) run.
//
// The fleet streams (S39): engine().align_batch_chunked forwards each chip's
// completed range to a ChunkSink as soon as it and all lower-indexed chips
// finish, so a StreamingPipeline over the fleet emits SAM records while
// later chips are still aligning. Passing ShardedOptions{.rebalance = true}
// at construction reweights the per-chip boundaries between batches from
// the measured wall-time skew (align::rebalanced_weights; feed it to
// set_shard_weights for the externally driven form).
//
// The fleet pays for its data (S43): reads no longer teleport into the
// sub-arrays. Every generation (one align_batch / align_batch_chunked call),
// each chip's shard is charged host->chip staging time by the TransferModel
// — 2-bit-packed payload bytes over the per-chip link, plus the per-batch
// serialization cost, with wire energy priced via the off-chip interconnect
// constants — BEFORE its modeled compute. With TransferOptions::
// double_buffer (the default), generation N+1's staging overlaps generation
// N's compute on a per-chip StagingTimeline, and the residual stall (the
// part of staging compute could not hide, including the generation-0
// pipeline fill) is what transfer_report() and the fleet.transfer.* series
// surface. Both operating points are therefore honest: compute-bound when
// the link keeps up, transfer-bound when it does not.
//
// Per-chip hardware tallies survive the run: chip_stats(i) reports chip i's
// LFM calls, sub-array ops, and energy for exactly the reads it was routed,
// which accel/measured_load.h converts into measured (rather than assumed)
// chip/contention-model load. chip_stats and publish_metrics read the
// chips' seqlock-published snapshots (each chip's driving thread publishes
// at read boundaries), so scraping a LIVE fleet — a PeriodicReporter mid-
// align_batch — is race-free; before S43 the header documented the
// opposite, and TSan agreed.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "src/align/sharded_engine.h"
#include "src/obs/metrics.h"
#include "src/pim/pim_engine.h"
#include "src/pim/platform.h"
#include "src/pim/transfer.h"
#include "src/util/seqlock.h"

namespace pim::hw {

/// Host->chip staging configuration for the fleet (S43).
struct TransferOptions {
  /// Model staging at all. Off disables the charge (the pre-S43 teleport
  /// fiction) — useful only for isolating the compute model in ablations.
  bool enabled = true;
  /// Stage generation N+1 while generation N computes (two landing buffers
  /// per chip). false = one buffer: every generation pays transfer + compute
  /// serially — the counterfactual the bench sweep compares against.
  bool double_buffer = true;
  /// TransferModel / InterconnectModel overrides (HostLinkBandwidthGBs,
  /// BatchSerializationNs, PerReadHeaderBytes, OffChipWord*).
  util::Config config;
};

/// One chip's accumulated transfer tallies (resettable via reset_stats()).
/// Trivially copyable: published through a seqlock for mid-run scraping.
struct ChipTransferStats {
  std::uint64_t generations = 0;   ///< Staged shards (zero-read shards skip).
  std::uint64_t staged_bytes = 0;
  std::uint64_t staged_words = 0;
  double staging_ns = 0.0;         ///< Serialization + wire time, summed.
  double serialization_ns = 0.0;
  double energy_pj = 0.0;          ///< Off-chip wire energy.
  double compute_ns = 0.0;         ///< Modeled chip busy time (busy_ns delta).
  double stall_ns = 0.0;           ///< Compute idle waiting on staging.
  double makespan_ns = 0.0;        ///< Overlapped end-to-end modeled time.
  double serial_ns = 0.0;          ///< Non-overlapped sum(transfer + compute).
};

/// Fleet-level transfer roll-up. Chips run concurrently, so the fleet's
/// end-to-end figures are the max over chips; byte/energy/stall tallies sum.
struct TransferReport {
  std::vector<ChipTransferStats> chips;
  std::uint64_t generations = 0;   ///< Fleet generations (align_batch calls).
  std::uint64_t staged_bytes = 0;
  double staging_ns = 0.0;
  double energy_pj = 0.0;
  double compute_ns = 0.0;
  double stall_ns = 0.0;
  /// Modeled end-to-end time with the configured buffering: slowest chip's
  /// pipeline makespan.
  double overlapped_ns = 0.0;
  /// The non-overlapped counterfactual: slowest chip's transfer + compute
  /// sum. double_buffer makes overlapped_ns strictly smaller once >= 2
  /// generations overlap (asserted in bench/engine_throughput).
  double serial_ns = 0.0;
  /// Fraction of staging time hidden under compute: 1 - stall/staging
  /// (0 when nothing was staged; the generation-0 fill keeps it < 1).
  double overlap_ratio = 0.0;
};

class PimChipFleet {
 public:
  /// Builds `num_chips` platforms over `fm` (all chips hold the full index,
  /// as the paper's chips each hold the full reference slice mapping).
  /// `fm` and `timing` must outlive the fleet.
  PimChipFleet(const index::FmIndex& fm, const TimingEnergyModel& timing,
               std::size_t num_chips, align::AlignerOptions options = {},
               ZoneLayout layout = {},
               AddPlacement placement = AddPlacement::kMethodI,
               align::ShardedOptions sharding = {},
               TransferOptions transfer = {});
  ~PimChipFleet();

  /// The fleet as one AlignmentEngine: align_batch fans out across chips,
  /// charging each chip's host->chip staging (S43) around the fan-out.
  /// (Out of line: FleetEngine is incomplete here.)
  align::ShardedEngine& engine();
  const align::ShardedEngine& engine() const;

  std::size_t num_chips() const { return engines_.size(); }
  PimAlignerPlatform& chip(std::size_t i) { return *platforms_[i]; }
  const PimAlignerPlatform& chip(std::size_t i) const {
    return *platforms_[i];
  }

  /// Chip i's hardware op/energy tallies since the last reset_stats().
  /// Reads the chip's seqlock-published snapshot, so it is safe while the
  /// fleet is aligning (values are then at most one read stale; exact at
  /// quiescence).
  PimAlignerPlatform::AggregateStats chip_stats(std::size_t i) const {
    return platforms_[i]->stats_snapshot();
  }
  /// Clears every chip's hardware and transfer tallies (call between
  /// measured batches; not concurrently with a running align_batch).
  void reset_stats();

  const TransferOptions& transfer_options() const { return transfer_options_; }
  const TransferModel& transfer_model() const { return transfer_model_; }

  /// Accumulated staging/overlap accounting since the last reset_stats().
  /// Safe to call while the fleet is aligning (seqlock-published, like
  /// chip_stats); deterministic across reruns — it is built from byte
  /// counts and modeled busy_ns, never wall clock.
  TransferReport transfer_report() const;

  /// Cumulative staging stall across every chip, in nanoseconds (the
  /// `stall_ns` sum of transfer_report(), without building the full
  /// report). Seqlock-published, so it is safe from ANY thread while the
  /// fleet is aligning — which makes it the canonical
  /// serve::ServiceOptions::stall_probe: the batcher samples it around
  /// each batch and attributes the delta pro-rata to the batch's traced
  /// requests (S45).
  double staging_stall_ns() const;

  /// Publishes each chip's current hardware tallies into `registry` (S40):
  /// per-chip "chip.<i>.cycles" (busy_ns x model clock), ".energy_pj",
  /// ".lfm_calls", ".sa_reads" gauges plus fleet-level "fleet.chips",
  /// "fleet.cycles", "fleet.energy_pj", "fleet.lfm_calls" roll-ups — the
  /// per-chip feed for the chips-vs-throughput curve (Fig. 8-10 style
  /// fleet-scale reporting). S43 adds the transfer series: fleet-level
  /// "fleet.transfer.{generations,staged_bytes,staging_ns,energy_pj,
  /// compute_ns,stall_ns,overlapped_ns,serial_ns,overlap_ratio}" and
  /// per-chip "fleet.transfer.chip.<i>.{staged_bytes,staging_ns,stall_ns}".
  /// Gauges, not counters: they snapshot the resettable tallies, so a
  /// reset_stats() between measured batches shows through. Safe to call
  /// WHILE chips are aligning (S43): every tally crosses threads through a
  /// seqlock, covered under TSan in tests/test_transfer.cpp.
  void publish_metrics(obs::MetricsRegistry& registry) const;

 private:
  class FleetEngine;  // ShardedEngine + per-generation staging charge.

  /// Writer-side per-chip transfer state (touched only by the engine's
  /// driving thread) plus the seqlock the readers scrape.
  struct ChipTransferState {
    StagingTimeline timeline;
    ChipTransferStats tally;
    util::Seqlock<ChipTransferStats> published;

    explicit ChipTransferState(bool double_buffer) : timeline(double_buffer) {}
  };

  /// Called by FleetEngine around each generation (driver thread only).
  void charge_generation(const align::ReadBatch& batch, std::size_t begin,
                         const std::vector<std::size_t>& bounds);

  std::vector<std::unique_ptr<PimAlignerPlatform>> platforms_;
  std::vector<std::unique_ptr<PimEngine>> engines_;
  std::unique_ptr<FleetEngine> sharded_;
  const TimingEnergyModel* timing_ = nullptr;
  TransferOptions transfer_options_;
  TransferModel transfer_model_;
  std::vector<std::unique_ptr<ChipTransferState>> transfer_state_;
  /// busy_ns at the previous generation boundary, per chip — the delta is
  /// the generation's modeled compute time.
  std::vector<double> busy_baseline_ns_;
  std::atomic<std::uint64_t> fleet_generations_{0};
};

}  // namespace pim::hw
