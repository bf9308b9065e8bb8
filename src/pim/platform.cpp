#include "src/pim/platform.h"

#include <stdexcept>

#include "src/align/search_core.h"
#include "src/align/seed_extend.h"

namespace pim::hw {

PimAlignerPlatform::PimAlignerPlatform(const index::FmIndex& fm,
                                       const TimingEnergyModel& timing,
                                       ZoneLayout layout,
                                       AddPlacement placement)
    : fm_(&fm), timing_(&timing), layout_(layout), placement_(placement) {
  layout_.validate(timing);
  const std::uint64_t capacity = layout_.bps_per_tile(timing.cols());
  const std::uint64_t total = fm.num_rows();
  const std::uint64_t num_tiles = (total + capacity - 1) / capacity;
  tiles_.reserve(num_tiles);
  for (std::uint64_t t = 0; t < num_tiles; ++t) {
    tiles_.push_back(
        std::make_unique<PimTile>(timing, layout_, fm, t * capacity));
    if (placement_ == AddPlacement::kMethodII) {
      // Method-II: the whole sub-array is duplicated so steps 2-4 run on
      // the copy while the original's compare resources stay free (Fig. 7).
      duplicates_.push_back(
          std::make_unique<PimTile>(timing, layout_, fm, t * capacity));
    }
  }
  // DPU boundary registers: LFM at id == num_rows when it falls exactly on
  // a tile boundary has no owning tile; the value is the final marker
  // (Count(nt) + Occ(nt, N)), a constant the DPU keeps locally.
  for (const auto nt : genome::kAllBases) {
    final_markers_[static_cast<std::size_t>(nt)] =
        fm.counts().count(nt) + fm.counts().occurrences(nt);
  }
}

std::uint64_t PimAlignerPlatform::lfm(genome::Base nt, std::uint64_t id) {
  if (id > fm_->num_rows()) {
    throw std::out_of_range("PimAlignerPlatform::lfm: id out of range");
  }
  ++lfm_calls_;
  const std::uint64_t capacity = layout_.bps_per_tile(timing_->cols());
  const std::uint64_t tile_idx = id / capacity;
  if (tile_idx >= tiles_.size()) {
    // id == num_rows on a tile boundary: answered from the DPU register.
    ++boundary_marker_hits_;
    return final_markers_[static_cast<std::size_t>(nt)];
  }
  PimTile& tile = *tiles_[tile_idx];
  if (placement_ == AddPlacement::kMethodI) {
    return tile.lfm(nt, id);
  }
  // Method-II: compare on the original, add on the duplicate.
  const std::uint32_t d = layout_.bps_per_row(timing_->cols());
  if ((id - tile.base()) % d == 0) {
    return tile.read_marker(nt, id);
  }
  const std::uint64_t count = tile.count_match(nt, id);
  return duplicates_[tile_idx]->marker_add(nt, id, count);
}

index::SaInterval PimAlignerPlatform::extend_hw(
    const index::SaInterval& interval, genome::Base nt) {
  return {lfm(nt, interval.low), lfm(nt, interval.high)};
}

align::ExactResult PimAlignerPlatform::exact_align(
    const std::vector<genome::Base>& read) {
  const PimSearchBackend backend(this);
  return align::exact_search_core(backend, read);
}

align::InexactResult PimAlignerPlatform::inexact_align(
    const std::vector<genome::Base>& read,
    const align::InexactOptions& options) {
  const PimSearchBackend backend(this);
  return align::inexact_search_core(backend, read, options);
}

std::vector<std::uint64_t> PimAlignerPlatform::locate_all(
    const index::SaInterval& interval) {
  // The SA lives in plain (non-computational) memory sub-arrays; each locate
  // is one 32-bit word read per row in the interval.
  sa_mem_reads_ += interval.count();
  return fm_->locate_all(interval);
}

void PimAlignerPlatform::charge_wfa_extension(
    const align::SeedExtendResult& result) {
  const align::WfaStats& wfa = result.wfa;
  if (wfa.wavefronts == 0 && wfa.cells == 0 && wfa.compare_bases == 0) {
    return;  // banded-SW pass: verification stayed on the host
  }
  const std::uint64_t bps = layout_.bps_per_row(timing_->cols());
  const std::uint64_t compare_rows = (wfa.compare_bases + bps - 1) / bps;
  // Eight 32-bit furthest-reaching offsets per 256-bit row of DPU state.
  const std::uint64_t offsets_per_row = timing_->cols() / 32;
  const std::uint64_t offset_rows =
      (wfa.cells + offsets_per_row - 1) / offsets_per_row;

  const OpCost match = timing_->xnor_match_cost();
  const OpCost word = timing_->op_cost(SubArrayOp::kDpuWord);
  extension_ops_.triple_senses += compare_rows;
  extension_ops_.dpu_word_ops += compare_rows + offset_rows;
  extension_ops_.energy_pj +=
      match.energy_pj * static_cast<double>(compare_rows) +
      word.energy_pj * static_cast<double>(offset_rows);
  extension_ops_.busy_ns +=
      match.latency_ns * static_cast<double>(compare_rows) +
      word.latency_ns * static_cast<double>(offset_rows);
  wfa_wavefronts_ += wfa.wavefronts;
  wfa_cells_ += wfa.cells;
}

namespace {

/// The PIM instantiation of the seed-extend Searcher concept. The optional
/// charge_extension hook routes WFA wavefront work onto the op model.
struct HwSearcher {
  PimAlignerPlatform* platform;

  align::ExactResult search(const std::vector<genome::Base>& seed) const {
    return platform->exact_align(seed);
  }
  std::vector<std::uint64_t> locate(const index::SaInterval& interval) const {
    return platform->locate_all(interval);
  }
  void charge_extension(const align::SeedExtendResult& result) const {
    platform->charge_wfa_extension(result);
  }
};

}  // namespace

align::SeedExtendResult seed_extend_hw(
    PimAlignerPlatform& platform, const std::vector<genome::Base>& read,
    const align::SeedExtendOptions& options) {
  return align::seed_extend_core(HwSearcher{&platform},
                                 platform.fm().reference(), read, options);
}

void PimSearchBackend::finish_one_row(const index::SaInterval& row,
                                      std::span<const genome::Base> prefix,
                                      std::vector<std::uint64_t>& out) const {
  align::detail::exact_tail(*this, row, prefix, out);
}

PimAlignerPlatform::AggregateStats PimAlignerPlatform::aggregate_stats() const {
  AggregateStats agg;
  for (const auto& tile : tiles_) {
    agg.ops += tile->stats();
  }
  for (const auto& tile : duplicates_) {
    agg.ops += tile->stats();
  }
  agg.ops += extension_ops_;
  agg.lfm_calls = lfm_calls_;
  agg.boundary_marker_hits = boundary_marker_hits_;
  agg.sa_mem_reads = sa_mem_reads_;
  agg.wfa_wavefronts = wfa_wavefronts_;
  agg.wfa_cells = wfa_cells_;
  return agg;
}

SubArrayStats PimAlignerPlatform::aggregate_load_stats() const {
  SubArrayStats agg;
  for (const auto& tile : tiles_) {
    agg += tile->load_stats();
  }
  for (const auto& tile : duplicates_) {
    agg += tile->load_stats();
  }
  return agg;
}

SubArrayStats PimAlignerPlatform::aggregate_duplicate_stats() const {
  SubArrayStats agg;
  for (const auto& tile : duplicates_) {
    agg += tile->stats();
  }
  return agg;
}

void PimAlignerPlatform::reset_stats() {
  for (auto& tile : tiles_) tile->reset_stats();
  for (auto& tile : duplicates_) tile->reset_stats();
  lfm_calls_ = 0;
  boundary_marker_hits_ = 0;
  sa_mem_reads_ = 0;
  extension_ops_ = SubArrayStats{};
  wfa_wavefronts_ = 0;
  wfa_cells_ = 0;
  publish_stats_snapshot();  // a reset between measured batches shows through
}

}  // namespace pim::hw
