// Suffix-array oracles: a comparison sort to hold SA-IS
// (src/index/suffix_array.h) against, and a validator. Both are quadratic
// in the worst case and meant for small texts.
#pragma once

#include "src/genome/packed_sequence.h"
#include "src/index/suffix_array.h"

namespace pim::index {

/// Naive O(n^2 log n) suffix array of text$, the sentinel smallest.
SuffixArray build_suffix_array_naive(const genome::PackedSequence& text);

/// Validate that `sa` is a permutation of [0, n] sorted by suffix order.
bool is_valid_suffix_array(const genome::PackedSequence& text,
                           const SuffixArray& sa);

}  // namespace pim::index
