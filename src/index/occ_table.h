// Count table (Fig. 2) and the Occ value types the Marker Table is built of.
//
//  * CountTable: Count(nt) = number of symbols in reference$ lexicographically
//    smaller than nt (the '$' counts, so Count(A)=1).
//  * OccCheckpoint: one row of per-base counts at a bucket boundary — the
//    Marker Table's stored row (marker_table.h), serialized verbatim.
//  * BaseCounts: one 64-bit count per base, what the Occ kernel returns.
//
// The Count build runs the word-parallel kernel of occ_kernel.h over the
// whole BWT; the kernel applies the primary (sentinel) correction, so the
// counts refer to true base occurrences.
#pragma once

#include <array>
#include <cstdint>

#include "src/index/bwt.h"

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

}  // namespace pim::index
