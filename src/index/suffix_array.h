// Suffix array construction.
//
// The paper's pre-computation step (Fig. 2) builds the BW matrix by sorting
// all rotations of reference$ — equivalently, the suffix array of the
// sentinel-terminated reference. build_suffix_array is linear-time SA-IS
// (Nong/Zhang/Chan), Hg19-scale friendly. The comparison-sort oracle and the
// validator the tests hold it against live in tests/support.
//
// It operates on the reference *with an implicit terminal sentinel* that is
// lexicographically smaller than every base, so the returned array has
// text.size()+1 entries and sa[0] == text.size() (the suffix "$").
#pragma once

#include <cstdint>
#include <vector>

#include "src/genome/packed_sequence.h"

namespace pim::index {

using SuffixArray = std::vector<std::uint32_t>;

/// Linear-time SA-IS. Throws std::invalid_argument for texts longer than
/// 2^31-2 (int32 internal indices; Hg19 per-chromosome fits comfortably).
SuffixArray build_suffix_array(const genome::PackedSequence& text);

}  // namespace pim::index
