// Burrows–Wheeler Transform of the sentinel-terminated reference.
//
// BWT(S$)[i] is the character preceding the i-th smallest suffix — the last
// column of the BW matrix of Fig. 1. The sentinel '$' appears exactly once,
// at row `primary`; since the platform stores the BWT 2-bit-packed (Fig. 6a),
// the sentinel cell holds a dummy base and `primary` is tracked by the DPU.
// Every consumer (the Occ kernel of occ_kernel.h, XNOR_Match counting)
// applies the primary correction, keeping the software and in-memory paths
// bit-identical.
#pragma once

#include <cstdint>

#include "src/genome/packed_sequence.h"
#include "src/index/suffix_array.h"

namespace pim::index {

struct Bwt {
  /// Length n+1. Position `primary` holds kSentinelFill, not a real base.
  genome::PackedSequence symbols;
  /// Row of the BW matrix whose preceding character is '$' (i.e. SA[row]==0).
  std::uint32_t primary = 0;

  /// The dummy base stored at the sentinel position. A is the choice the
  /// hardware mapping uses; tests assert the correction logic makes its value
  /// irrelevant.
  static constexpr genome::Base kSentinelFill = genome::Base::A;

  std::size_t size() const { return symbols.size(); }

  bool is_sentinel(std::size_t i) const { return i == primary; }

  /// Base at row i; must not be the sentinel row.
  genome::Base at(std::size_t i) const;
};

/// Build the BWT from the reference and its (sentinel-inclusive) suffix array.
Bwt build_bwt(const genome::PackedSequence& text, const SuffixArray& sa);

/// Inverse transform (LF walk); reconstructs the original reference. Used by
/// the reversibility property tests.
genome::PackedSequence invert_bwt(const Bwt& bwt);

}  // namespace pim::index
