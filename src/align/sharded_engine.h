// Multi-chip sharded execution behind the one engine seam (S38).
//
// The paper's headline numbers (Fig. 8-10) are chip-scale: Pd-way pipelined
// sub-arrays aggregated across a whole SOT-MRAM chip, and chips aggregated
// across the platform. ShardedEngine is that aggregation seam on the host
// side: it implements AlignmentEngine over N backend engine *instances*
// (one simulated chip each — see pim::hw::PimChipFleet — or N software
// engines as the zero-hardware baseline), partitions a ReadBatch into
// contiguous per-shard ranges, fans the ranges out, and stitches the
// per-shard BatchResults back in read order. EngineStats merge
// associatively at the stitch, so the merged counters equal an unsharded
// run by construction — asserted in tests/test_engine.cpp as
// "sharded(N) == unsharded", the multi-chip extension of the software/PIM
// bit-identity invariant.
//
// Because it sits behind AlignmentEngine, every front-end programmed against
// the seam (parallel scheduler, SamWriter::write_batch, examples, benches)
// gets multi-chip execution without code changes.
//
// Thread model: each shard engine instance is driven by exactly ONE thread
// (one scheduler task per non-empty shard, one worker per task), so
// backends whose thread_safe() is false (PimEngine: per-chip op/energy
// tallies) shard safely — the contract is that shard instances share no
// mutable state (each PIM chip owns its platform). ShardedEngine itself
// reports thread_safe() == false because it records a per-shard load
// breakdown (shard_stats()) on each run.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "src/align/engine.h"
#include "src/align/read_batch.h"
#include "src/obs/metrics.h"

namespace pim::align {

/// Per-chip load observed on the last sharded run — the measured feed for
/// the chip/contention models in src/accel (see accel/measured_load.h),
/// which otherwise assume uniform per-chip load.
struct ShardStats {
  std::size_t shard = 0;        ///< Shard (chip) index.
  std::uint64_t reads = 0;      ///< Reads routed to this shard.
  std::uint64_t hits = 0;       ///< Hits this shard produced.
  double wall_ms = 0.0;         ///< This shard's align wall time.
  EngineStats stats;            ///< Full per-shard engine counters.
};

struct ShardedOptions {
  /// After each run, reweight the shard boundaries toward each shard's
  /// measured throughput (rebalanced_weights over shard_stats()), so the
  /// next batch equalizes expected wall time instead of read counts — the
  /// load-balanced-sharding loop for streaming runs, where repeat-heavy
  /// reads clustering in one shard would otherwise stall the whole fan-out
  /// every generation.
  bool rebalance = false;
  /// Observability sink (S40). When set, every run publishes per-shard
  /// series after the fan-out — "shard.<i>.reads"/"shard.<i>.hits"
  /// counters (cumulative) and "shard.<i>.wall_ms"/"shard.<i>.reads_per_ms"
  /// /"shard.<i>.weight" gauges (last run), the same measurement
  /// shard_stats() exposes programmatically. Null = zero overhead.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Shard weights moved halfway from `weights` toward each shard's measured
/// throughput (reads / wall_ms in `shard_stats`). Shards without a usable
/// measurement (no reads routed, or wall below timer resolution) are
/// targeted at the mean measured throughput, and every weight keeps a floor
/// of 10% of a uniform share so a transiently slow shard is never starved
/// out of future measurements. Returns normalized weights (sum 1), or
/// `weights` unchanged when nothing was measured.
std::vector<double> rebalanced_weights(
    std::vector<double> weights, const std::vector<ShardStats>& shard_stats);

// Not final: pim::hw::PimChipFleet derives a transfer-charging engine (S43)
// that brackets the fan-out with host->chip staging accounting.
class ShardedEngine : public AlignmentEngine {
 public:
  /// Owning: the sharded engine keeps the backend instances alive.
  explicit ShardedEngine(std::vector<std::unique_ptr<AlignmentEngine>> shards,
                         ShardedOptions options = {});
  /// Non-owning: `shards` must outlive the engine (PimChipFleet owns its
  /// chips this way). Instances must be distinct objects sharing no mutable
  /// state.
  explicit ShardedEngine(std::vector<const AlignmentEngine*> shards,
                         ShardedOptions options = {});

  std::string_view name() const override { return "sharded"; }
  /// align_range overwrites the shard_stats() breakdown, so concurrent
  /// calls on one ShardedEngine are not allowed. (The internal per-shard
  /// fan-out is still parallel.)
  bool thread_safe() const override { return false; }
  void align_range(const ReadBatch& batch, std::size_t begin, std::size_t end,
                   BatchResult& out) const override;

  /// Streaming execution (S39): one scheduler task per non-empty shard,
  /// one thread each; each shard's result is forwarded to `sink` as soon as
  /// it AND every lower-indexed shard finish (shard order == read order), so
  /// a multi-chip fleet streams chunks out while later chips are still
  /// aligning. `options` is ignored: the shard ranges are the chunks, and
  /// the sched.* series stay with unsharded runs.
  EngineStats align_batch_chunked(
      const ReadBatch& batch, const ChunkSink& sink,
      const ParallelOptions& options = {}) const override;

  std::size_t num_shards() const { return shards_.size(); }
  const AlignmentEngine& shard(std::size_t i) const { return *shards_[i]; }
  const ShardedOptions& options() const { return options_; }

  /// Per-chip breakdown of the last align_range/align_batch call (empty
  /// before the first run). Shards with no reads still appear, with zeroed
  /// counters.
  const std::vector<ShardStats>& shard_stats() const { return shard_stats_; }

  /// Relative shard weights steering the partition (uniform initially;
  /// normalized to sum 1). With options().rebalance they update after every
  /// run; set_shard_weights installs externally computed weights (e.g.
  /// rebalanced_weights over a fleet's measured load). Throws if the size
  /// mismatches or any weight is not positive.
  const std::vector<double>& shard_weights() const { return weights_; }
  void set_shard_weights(std::vector<double> weights);

  /// Weighted contiguous partition of `reads` under the current weights:
  /// num_shards()+1 monotone boundaries with front()==0, back()==reads.
  /// Exposed for tests and front-ends that pre-route per-shard data.
  std::vector<std::size_t> partition(std::size_t reads) const;

 private:
  /// Per-shard metric handles (empty when no registry is installed).
  struct ShardSeries {
    obs::Counter reads;
    obs::Counter hits;
    obs::Gauge wall_ms;
    obs::Gauge reads_per_ms;
    obs::Gauge weight;
  };

  /// Fan [begin, end) of `batch` out across the shards through the one
  /// scheduler, refresh shard_stats() and the shard series, and rebalance.
  EngineStats run(const ReadBatch& batch, std::size_t begin, std::size_t end,
                  const ChunkSink& sink) const;
  void init_metrics();
  void publish_weights() const;

  std::vector<std::unique_ptr<AlignmentEngine>> owned_;
  std::vector<const AlignmentEngine*> shards_;
  ShardedOptions options_;
  mutable std::vector<ShardStats> shard_stats_;
  mutable std::vector<double> weights_;
  std::vector<ShardSeries> series_;
};

}  // namespace pim::align
