// PIM-Aligner platform (Fig. 3 macro-architecture).
//
// Owns the full set of computational sub-array tiles covering the indexed
// reference (correlated BWT+MT slices, Section V), the DPU-held registers
// (primary index, boundary markers), and the entry points that run
// Algorithm 1/2 *on the in-memory primitives* via the backend-generic search
// cores. Alignment results are bit-identical to the software FM-index path
// by construction; what the platform adds is faithful per-operation
// cycle/energy accounting, which the chip-level model (src/accel) scales to
// the paper's Hg19 workload.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/align/types.h"
#include "src/genome/alphabet.h"
#include "src/index/fm_index.h"
#include "src/pim/mapping.h"
#include "src/pim/pipeline.h"
#include "src/pim/timing_energy.h"
#include "src/util/seqlock.h"

namespace pim::hw {

/// IM_ADD placement (Fig. 6d): method-I keeps the addition in the slice's
/// own sub-array; method-II duplicates every tile and routes steps 2-4 to
/// the duplicate, freeing the compare resources for pipelining (Pd >= 2).
enum class AddPlacement : std::uint8_t { kMethodI, kMethodII };

class PimAlignerPlatform {
 public:
  /// Builds all tiles for the index (twice under method-II). The FM-index
  /// bucket width must match the layout's bps-per-row (128 for the default
  /// 512x256 organisation).
  PimAlignerPlatform(const index::FmIndex& fm, const TimingEnergyModel& timing,
                     ZoneLayout layout = {},
                     AddPlacement placement = AddPlacement::kMethodI);

  // --- In-memory LFM primitives -------------------------------------------
  /// LFM(MT, nt, id) executed on the owning tile's sub-array.
  std::uint64_t lfm(genome::Base nt, std::uint64_t id);

  index::SaInterval whole_interval() const {
    return {0, fm_->num_rows()};
  }
  /// One backward-extension step: two hardware LFM calls (low and high).
  index::SaInterval extend_hw(const index::SaInterval& interval,
                              genome::Base nt);

  // --- Alignment entry points (Algorithms 1 and 2 on hardware) ------------
  align::ExactResult exact_align(const std::vector<genome::Base>& read);
  align::InexactResult inexact_align(const std::vector<genome::Base>& read,
                                     const align::InexactOptions& options = {});
  /// Locate through the SA region (plain memory sub-arrays), charged as one
  /// SA MEM read per row of the interval: the `limit` smallest positions
  /// (0 = all), ascending, into `out`, reusing its capacity. The hardware
  /// must read every row to find the smallest, so a limit saves no read.
  void locate_all_into(const index::SaInterval& interval,
                       std::vector<std::uint64_t>& out, std::size_t limit);

  // --- Accounting ----------------------------------------------------------
  struct AggregateStats {
    SubArrayStats ops;            ///< Summed over all tiles.
    std::uint64_t lfm_calls = 0;
    std::uint64_t boundary_marker_hits = 0;  ///< DPU-register answers.
    std::uint64_t sa_mem_reads = 0;
  };
  AggregateStats aggregate_stats() const;

  /// Mid-run-safe view of aggregate_stats() (S43). The tallies themselves
  /// are plain fields written by the platform's single driving thread —
  /// aggregate_stats() while that thread is aligning is a data race. The
  /// driver instead calls publish_stats_snapshot() at read boundaries
  /// (PimEngine::align_range does, per read), and any OTHER thread — a
  /// PeriodicReporter scraping PimChipFleet::publish_metrics — reads the
  /// seqlock-published copy here. At quiescence (driver joined) the
  /// snapshot equals aggregate_stats() exactly.
  AggregateStats stats_snapshot() const { return snapshot_.load(); }
  /// Publish the current tallies; must be called by the (single) thread
  /// driving this platform. Cost: one tile sweep + a wait-free seqlock
  /// store — per-read, not per-operation.
  void publish_stats_snapshot() { snapshot_.store(aggregate_stats()); }
  SubArrayStats aggregate_load_stats() const;
  /// Method-II only: ops executed on the duplicate (add-side) tiles.
  /// Included in aggregate_stats(); exposed separately so the measured
  /// compare/add resource split can be compared with the pipeline model.
  SubArrayStats aggregate_duplicate_stats() const;
  void reset_stats();

  AddPlacement placement() const { return placement_; }
  std::size_t num_tiles() const { return tiles_.size(); }
  PimTile& tile(std::size_t i) { return *tiles_[i]; }
  const index::FmIndex& fm() const { return *fm_; }
  const TimingEnergyModel& timing() const { return *timing_; }
  const ZoneLayout& layout() const { return layout_; }

 private:
  const index::FmIndex* fm_;
  const TimingEnergyModel* timing_;
  ZoneLayout layout_;
  AddPlacement placement_ = AddPlacement::kMethodI;
  std::vector<std::unique_ptr<PimTile>> tiles_;
  std::vector<std::unique_ptr<PimTile>> duplicates_;  ///< Method-II only.
  /// DPU boundary registers: marker values at the end-of-BWT checkpoint,
  /// needed when `high` == num_rows lands exactly on a tile boundary.
  std::array<std::uint64_t, genome::kNumBases> final_markers_{};
  std::uint64_t lfm_calls_ = 0;
  std::uint64_t boundary_marker_hits_ = 0;
  std::uint64_t sa_mem_reads_ = 0;
  /// Seqlock-published copy of the tallies for cross-thread scraping (S43).
  util::Seqlock<AggregateStats> snapshot_;
};

/// Thin const adapter satisfying the search-core Backend concept while
/// routing every extension through the platform's in-memory LFM.
class PimSearchBackend {
 public:
  explicit PimSearchBackend(PimAlignerPlatform* platform)
      : platform_(platform) {}

  index::SaInterval whole_interval() const {
    return platform_->whole_interval();
  }
  index::SaInterval extend(const index::SaInterval& interval,
                           genome::Base nt) const {
    return platform_->extend_hw(interval, nt);
  }
  /// Four extend_hw calls in base order: the hardware issues one LFM pair
  /// per base, so the charged LFM demand (8 calls) is unchanged.
  std::array<index::SaInterval, genome::kNumBases> extend4(
      const index::SaInterval& interval) const {
    std::array<index::SaInterval, genome::kNumBases> next;
    for (const auto b : genome::kAllBases) {
      next[static_cast<std::size_t>(b)] = platform_->extend_hw(interval, b);
    }
    return next;
  }
  /// SA locate through the platform, charged as SA MEM reads.
  void locate_all_into(const index::SaInterval& interval,
                       std::vector<std::uint64_t>& out,
                       std::size_t limit) const {
    platform_->locate_all_into(interval, out, limit);
  }
  /// Stage one starts from the whole interval with nothing consumed: the
  /// paper's memory has no k-mer table, so the platform issues and charges
  /// every LFM of Algorithm 1.
  index::SearchStart exact_start(std::span<const genome::Base>) const {
    return {whole_interval(), 0, false};
  }
  /// Finishes a one-row interval as Algorithm 1 does: the remaining
  /// extend_hw steps, then the charged locate. The paper's memory holds
  /// only BWT, MT and SA, so the platform has no reference to verify
  /// against, and it issues and charges exactly Algorithm 1's operations.
  void finish_one_row(const index::SaInterval& row,
                      std::span<const genome::Base> prefix,
                      std::vector<std::uint64_t>& out) const;

 private:
  PimAlignerPlatform* platform_;
};

}  // namespace pim::hw
