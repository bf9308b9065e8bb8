#include "src/pim/mapping.h"

#include <algorithm>
#include <stdexcept>

namespace pim::hw {

void ZoneLayout::validate(const TimingEnergyModel& model) const {
  if (total_rows() != model.rows()) {
    throw std::invalid_argument("ZoneLayout: zones do not sum to array rows");
  }
  if (model.cols() % 2 != 0) {
    throw std::invalid_argument("ZoneLayout: odd column count");
  }
  if (cref_rows < genome::kNumBases) {
    throw std::invalid_argument("ZoneLayout: need one CRef row per base");
  }
  if (mt_rows < genome::kNumBases * marker_bits) {
    throw std::invalid_argument("ZoneLayout: MT zone too small for 4 banks");
  }
  if (reserved_rows < 2 * marker_bits + 1) {
    throw std::invalid_argument(
        "ZoneLayout: reserved zone needs count+sum rows and a carry row");
  }
  if (bwt_rows > model.cols()) {
    // One checkpoint per BWT row, stored one-per-column in the MT zone.
    throw std::invalid_argument("ZoneLayout: more checkpoints than columns");
  }
  if (marker_bits > 64 || marker_bits == 0) {
    throw std::invalid_argument("ZoneLayout: marker width out of range");
  }
}

PimTile::PimTile(const TimingEnergyModel& model, const ZoneLayout& layout,
                 const index::FmIndex& fm, std::uint64_t base)
    : layout_(layout), array_(model), base_(base) {
  layout_.validate(model);
  const std::uint32_t d = layout_.bps_per_row(array_.cols());
  if (fm.config().bucket_width != d) {
    throw std::invalid_argument(
        "PimTile: FM-index bucket width must equal bps per row");
  }
  if (base % layout_.bps_per_tile(array_.cols()) != 0) {
    throw std::invalid_argument("PimTile: base not tile-aligned");
  }
  if (base >= fm.num_rows()) {
    throw std::invalid_argument("PimTile: base beyond BWT");
  }
  size_ = std::min<std::uint64_t>(layout_.bps_per_tile(array_.cols()),
                                  fm.num_rows() - base);
  primary_ = fm.bwt().primary;
  tile_holds_primary_ = primary_ >= base_ && primary_ < base_ + size_;

  load_bwt_and_cref(fm);
  load_markers(fm);
  load_stats_ = array_.stats();
  array_.reset_stats();
}

void PimTile::load_bwt_and_cref(const index::FmIndex& fm) {
  const std::uint32_t d = layout_.bps_per_row(array_.cols());
  const auto& symbols = fm.bwt().symbols;

  // BWT zone: 2-bit hardware encoding, d bps per row. The sentinel position
  // keeps its dummy fill; the DPU's primary register corrects for it.
  const std::uint64_t rows_used =
      (size_ + d - 1) / d;
  for (std::uint64_t r = 0; r < rows_used; ++r) {
    util::BitVector row(array_.cols(), false);
    const std::uint64_t row_base = base_ + r * d;
    const std::uint64_t row_len = std::min<std::uint64_t>(d, size_ - r * d);
    for (std::uint64_t j = 0; j < row_len; ++j) {
      const std::uint8_t code =
          genome::hardware_code(symbols.at(row_base + j));
      row.set(static_cast<std::size_t>(2 * j), (code >> 1) & 1U);
      row.set(static_cast<std::size_t>(2 * j + 1), code & 1U);
    }
    array_.write_row(layout_.bwt_zone_begin() + static_cast<std::uint32_t>(r),
                     row);
  }

  // CRef zone: each nucleotide's code repeated across the word-line.
  for (const auto nt : genome::kAllBases) {
    const std::uint8_t code = genome::hardware_code(nt);
    util::BitVector row(array_.cols(), false);
    for (std::uint32_t j = 0; j < layout_.bps_per_row(array_.cols()); ++j) {
      row.set(2 * j, (code >> 1) & 1U);
      row.set(2 * j + 1, code & 1U);
    }
    array_.write_row(
        layout_.cref_zone_begin() + static_cast<std::uint32_t>(nt), row);
  }
}

void PimTile::load_markers(const index::FmIndex& fm) {
  const std::uint32_t d = layout_.bps_per_row(array_.cols());
  const auto& markers = fm.markers();
  const std::uint64_t first_checkpoint = base_ / d;
  // Store every checkpoint this tile can answer, including the boundary
  // checkpoint after a partial tail (needed when id lands exactly on it).
  const std::uint64_t available = markers.num_checkpoints() - first_checkpoint;
  const std::uint32_t to_store = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      {available, layout_.bwt_rows, array_.cols()}));
  for (std::uint32_t k = 0; k < to_store; ++k) {
    for (const auto nt : genome::kAllBases) {
      const std::uint32_t bank_row =
          layout_.mt_zone_begin() +
          static_cast<std::uint32_t>(nt) * layout_.marker_bits;
      array_.write_word_vertical(
          k, bank_row, layout_.marker_bits,
          markers.marker(nt, first_checkpoint + k));
    }
  }
}

std::uint32_t PimTile::checkpoint_column(std::uint64_t id) const {
  return static_cast<std::uint32_t>((id - base_) /
                                    layout_.bps_per_row(array_.cols()));
}

std::uint64_t PimTile::count_match(genome::Base nt, std::uint64_t id) {
  const std::uint32_t d = layout_.bps_per_row(array_.cols());
  const std::uint64_t local = id - base_;
  const std::uint64_t residual = local % d;
  if (id <= base_ || id > base_ + size_ || residual == 0) {
    throw std::invalid_argument("PimTile::count_match: id out of tile range");
  }
  const auto row = static_cast<std::uint32_t>(local / d);

  // XNOR_Match (one triple sense comparing the BWT row with CRef(nt)) fused
  // with the DPU's lane-pair popcount over the [0, residual) prefix.
  std::uint64_t count = array_.xnor2_lane_matches(
      layout_.bwt_zone_begin() + row,
      layout_.cref_zone_begin() + static_cast<std::uint32_t>(nt),
      static_cast<std::uint32_t>(residual));
  array_.charge_dpu_word();

  // Sentinel correction: the dummy base stored at the primary row would
  // otherwise count as a real occurrence of kSentinelFill.
  if (tile_holds_primary_ && nt == index::Bwt::kSentinelFill &&
      primary_ >= id - residual && primary_ < id) {
    --count;
  }
  return count;
}

std::uint64_t PimTile::lfm(genome::Base nt, std::uint64_t id) {
  const std::uint32_t d = layout_.bps_per_row(array_.cols());
  if (id < base_ || id > base_ + size_) {
    throw std::invalid_argument("PimTile::lfm: id out of tile range");
  }
  if ((id - base_) % d == 0) {
    // On a checkpoint: the marker is the answer (MEM only).
    return read_marker(nt, id);
  }
  // 1) XNOR_Match + popcount; 2-4) fold into the marker locally (method-I).
  return marker_add(nt, id, count_match(nt, id));
}

std::uint64_t PimTile::read_marker(genome::Base nt, std::uint64_t id) {
  if (id < base_ || id > base_ + size_) {
    throw std::invalid_argument("PimTile::read_marker: id out of tile range");
  }
  const std::uint32_t marker_row =
      layout_.mt_zone_begin() +
      static_cast<std::uint32_t>(nt) * layout_.marker_bits;
  return array_.read_word_vertical(checkpoint_column(id), marker_row,
                                   layout_.marker_bits);
}

std::uint64_t PimTile::marker_add(genome::Base nt, std::uint64_t id,
                                  std::uint64_t count_match_value) {
  const std::uint32_t d = layout_.bps_per_row(array_.cols());
  if (id <= base_ || id > base_ + size_ || (id - base_) % d == 0) {
    throw std::invalid_argument("PimTile::marker_add: bad id");
  }
  const std::uint32_t k = checkpoint_column(id);
  const std::uint32_t marker_row =
      layout_.mt_zone_begin() +
      static_cast<std::uint32_t>(nt) * layout_.marker_bits;
  const std::uint32_t reserved = layout_.reserved_zone_begin();

  // 2) Transpose the count into the reserved zone (same bit-line as the
  //    marker it will be added to).
  array_.write_word_vertical(k, reserved + layout_.count_rows_offset(),
                             layout_.marker_bits, count_match_value);

  // 3) IM_ADD: marker + count_match, bit-serial MAJ/XOR3 adder.
  array_.im_add(marker_row, reserved + layout_.count_rows_offset(),
                reserved + layout_.sum_rows_offset(),
                reserved + layout_.carry_row_offset(), layout_.marker_bits);

  // 4) MEM: read the updated bound back to the DPU.
  return array_.read_word_vertical(k, reserved + layout_.sum_rows_offset(),
                                   layout_.marker_bits);
}

std::uint64_t PimTile::peek_marker(genome::Base nt,
                                   std::uint32_t checkpoint) const {
  const std::uint32_t bank_row =
      layout_.mt_zone_begin() +
      static_cast<std::uint32_t>(nt) * layout_.marker_bits;
  std::uint64_t value = 0;
  for (std::uint32_t i = 0; i < layout_.marker_bits; ++i) {
    if (array_.peek_row(bank_row + i).get(checkpoint)) value |= (1ULL << i);
  }
  return value;
}

}  // namespace pim::hw
