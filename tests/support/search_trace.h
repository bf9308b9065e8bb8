// Per-step interval trace of Algorithm 1: the interval after each backward
// extension. Tests check the paper's worked example and every k-mer table
// entry against it; the engines never record it.
#pragma once

#include <vector>

#include "src/genome/alphabet.h"
#include "src/index/fm_index.h"

namespace pim::align {

/// One entry after each extension of `read` (right to left), stopping after
/// the first empty interval.
std::vector<index::SaInterval> exact_search_trace(
    const index::FmIndex& index, const std::vector<genome::Base>& read);

}  // namespace pim::align
