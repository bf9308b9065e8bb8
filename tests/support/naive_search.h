// Brute-force search oracles.
//
// Quadratic-or-worse reference implementations the property tests hold the
// FM-index paths against. Built only into the test-support library; never
// used on large inputs.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/genome/alphabet.h"
#include "src/genome/packed_sequence.h"

namespace pim::align {

/// All start positions where `read` occurs exactly in `reference`.
std::vector<std::uint64_t> naive_exact_positions(
    const genome::PackedSequence& reference,
    const std::vector<genome::Base>& read);

/// All (position, mismatches) where `read` aligns with Hamming distance
/// <= max_mismatches (same length, substitutions only).
std::vector<std::pair<std::uint64_t, std::uint32_t>> naive_hamming_positions(
    const genome::PackedSequence& reference,
    const std::vector<genome::Base>& read, std::uint32_t max_mismatches);

/// All (position, edits) where some reference substring starting at
/// `position` matches `read` with edit distance <= max_edits
/// (substitutions + insertions + deletions). `edits` is the minimum over
/// substring lengths. Banded DP per start position: O(n * m * max_edits).
std::vector<std::pair<std::uint64_t, std::uint32_t>> naive_edit_positions(
    const genome::PackedSequence& reference,
    const std::vector<genome::Base>& read, std::uint32_t max_edits);

}  // namespace pim::align
