// Count table and Occurrence (FM-index) tables over the BWT (Fig. 2).
//
//  * CountTable: Count(nt) = number of symbols in reference$ lexicographically
//    smaller than nt (the '$' counts, so Count(A)=1).
//  * OccTable: full Occ[i][nt] = occurrences of nt in BWT[0, i). O(n) words —
//    the oracle the sampled structures are tested against.
//  * SampledOccTable: Occ checkpointed every d positions (bucket width d,
//    default 128 = one sub-array row of 128 bps). occ(nt, i) =
//    checkpoint + on-demand count of nt in BWT[i - i mod d, i) — exactly the
//    `marker + count_match` decomposition the PIM platform executes with
//    MEM + XNOR_Match. The count (and the checkpoint build) runs the
//    word-parallel kernel of occ_kernel.h.
//
// All tables apply the primary (sentinel) correction internally, so their
// counts refer to true base occurrences.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/index/bwt.h"
#include "src/util/storage.h"

namespace pim::index {

/// One checkpoint row: the per-base occurrence counts at a bucket boundary.
/// 16 bytes, no padding — serialized verbatim into the v2 index artifact
/// (and mapped back, so the layout is part of the on-disk format).
using OccCheckpoint = std::array<std::uint32_t, genome::kNumBases>;
static_assert(sizeof(OccCheckpoint) == genome::kNumBases * sizeof(std::uint32_t));

/// One count per base, indexed by static_cast<std::size_t>(Base).
using BaseCounts = std::array<std::uint64_t, genome::kNumBases>;

class CountTable {
 public:
  CountTable() = default;
  explicit CountTable(const Bwt& bwt);
  /// Reassemble from persisted arrays (v2 index artifact header).
  CountTable(const std::array<std::uint64_t, genome::kNumBases>& counts,
             const std::array<std::uint64_t, genome::kNumBases>& occurrences)
      : counts_(counts), occurrences_(occurrences) {}

  /// Symbols in reference$ smaller than `nt` (includes the sentinel).
  std::uint64_t count(genome::Base nt) const {
    return counts_[static_cast<std::size_t>(nt)];
  }
  /// Total occurrences of `nt` in the reference.
  std::uint64_t occurrences(genome::Base nt) const {
    return occurrences_[static_cast<std::size_t>(nt)];
  }

  const std::array<std::uint64_t, genome::kNumBases>& counts_raw() const {
    return counts_;
  }
  const std::array<std::uint64_t, genome::kNumBases>& occurrences_raw() const {
    return occurrences_;
  }

 private:
  std::array<std::uint64_t, genome::kNumBases> counts_{};
  std::array<std::uint64_t, genome::kNumBases> occurrences_{};
};

/// Full per-position Occ table; O(n) space, test oracle + small-n tool.
class OccTable {
 public:
  OccTable() = default;
  explicit OccTable(const Bwt& bwt);

  /// Occurrences of nt in BWT[0, i).
  std::uint64_t occ(genome::Base nt, std::size_t i) const {
    return table_[i][static_cast<std::size_t>(nt)];
  }

  std::size_t memory_bytes() const {
    return table_.size() * sizeof(table_[0]);
  }

 private:
  std::vector<std::array<std::uint32_t, genome::kNumBases>> table_;
};

class SampledOccTable {
 public:
  SampledOccTable() = default;
  SampledOccTable(const Bwt& bwt, std::uint32_t bucket_width);

  std::uint32_t bucket_width() const { return d_; }
  std::size_t num_checkpoints() const { return checkpoints_.size(); }

  /// Checkpoint value: occurrences of nt in BWT[0, k*d).
  std::uint64_t checkpoint(genome::Base nt, std::size_t k) const {
    return checkpoints_[k][static_cast<std::size_t>(nt)];
  }

  std::span<const OccCheckpoint> checkpoints() const {
    return checkpoints_.span();
  }

  /// Exact occ(nt, i) = checkpoint + residual count of at most d-1 symbols.
  /// Throws std::out_of_range if i > bwt.size().
  std::uint64_t occ(const Bwt& bwt, genome::Base nt, std::size_t i) const;

  /// The residual count alone: occurrences of nt in BWT[i - i mod d, i),
  /// with the sentinel-row correction — the software twin of the hardware
  /// XNOR_Match + DPU popcount. Exposed so the PIM controller can be
  /// checked stage-by-stage against software. Throws std::out_of_range if
  /// i > bwt.size().
  std::uint64_t count_match(const Bwt& bwt, genome::Base nt, std::size_t i) const;

  std::size_t memory_bytes() const {
    return checkpoints_.size() * sizeof(checkpoints_[0]);
  }

 private:
  std::uint32_t d_ = 0;
  util::Storage<OccCheckpoint> checkpoints_;
};

}  // namespace pim::index
