// Marker Table (MT) — the paper's key pre-computed structure (Fig. 2).
//
// MT[nt][k] = Occ(nt, k*d) + Count(nt), the Occ sampled every d rows with
// the Count table folded in, so the LFM procedure becomes a single
// `marker + count_match` addition, which is what the IM_ADD in-memory adder
// computes. LFM(MT, nt, id) therefore returns the *updated interval bound*
// directly:
//     LFM(MT, nt, id) == Count(nt) + Occ(nt, id)
// which is the classic LF-mapping backward-search update.
//
// The constructor builds the rows in one pass over the BWT: it keeps a
// running Occ, adds one bucket's occ_kernel::count4 per row, and stores
// Count + running as each row's markers. No separate sampled-Occ table is
// built.
//
// Marker rows live in Storage<OccCheckpoint> (S42): built tables own them;
// from_parts() lets the index loader borrow the marker section of a mapped
// artifact zero-copy.
#pragma once

#include <cstdint>
#include <span>

#include "src/index/bwt.h"
#include "src/index/occ_table.h"
#include "src/util/storage.h"

namespace pim::index {

class MarkerTable {
 public:
  MarkerTable() = default;
  MarkerTable(const Bwt& bwt, const CountTable& counts,
              std::uint32_t bucket_width);

  /// Reassemble from persisted marker rows (owned or borrowed). The row
  /// count must match the BWT the table will be queried with
  /// (bwt.size() / bucket_width + 1) — checked by FmIndex::from_parts.
  static MarkerTable from_parts(std::uint32_t bucket_width,
                                util::Storage<OccCheckpoint> markers);

  std::uint32_t bucket_width() const { return d_; }
  std::size_t num_checkpoints() const { return markers_.size(); }

  /// marker(nt, k) = Count(nt) + Occ(nt, k*d). 32-bit, as stored in the
  /// sub-array MT zone (4-byte values, Fig. 6a).
  std::uint32_t marker(genome::Base nt, std::size_t k) const {
    return markers_[k][static_cast<std::size_t>(nt)];
  }

  /// The hardware-friendly LFM procedure (Algorithm 1, line 9):
  /// returns Count(nt) + Occ(nt, id) using one marker read plus the word
  /// kernel's count over at most d-1 BWT symbols. Throws std::out_of_range
  /// if id > bwt.size().
  std::uint64_t lfm(const Bwt& bwt, genome::Base nt, std::size_t id) const;

  /// lfm() for all four bases from one pass over the residual words:
  /// lfm4(bwt, id)[nt] == lfm(bwt, nt, id).
  BaseCounts lfm4(const Bwt& bwt, std::size_t id) const;

  /// Raw marker rows, for serialization.
  std::span<const OccCheckpoint> rows() const { return markers_.span(); }

  std::size_t memory_bytes() const {
    return markers_.size() * sizeof(OccCheckpoint);
  }

 private:
  std::uint32_t d_ = 0;
  util::Storage<OccCheckpoint> markers_;
};

}  // namespace pim::index
