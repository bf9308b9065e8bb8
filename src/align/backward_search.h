// Exact alignment-in-memory algorithm (the paper's Algorithm 1).
//
// Backward search over the FM-index: starting from the rightmost nucleotide
// of the read, each step updates the SA interval with two LFM calls
// (low and high). Complexity O(m) per read, versus O(nm) for dynamic
// programming — the asymmetry the paper's Section II highlights.
//
// These are the FmIndex instantiations of the backend-generic cores in
// search_core.h; the PIM platform instantiates the same cores over its
// in-memory backend.
#pragma once

#include <cstdint>
#include <vector>

#include "src/align/types.h"
#include "src/genome/alphabet.h"
#include "src/index/fm_index.h"

namespace pim::align {

/// Algorithm 1: exact backward search of `read` in the indexed reference.
/// Early-exits (paper line: "if low >= high, it has failed") as soon as the
/// interval collapses.
ExactResult exact_search(const index::FmIndex& index,
                         const std::vector<genome::Base>& read);

/// All start positions of exact occurrences, sorted: stage one's search
/// (exact_locate_core), which stops walking once the interval is one row
/// and verifies the rest of the read against index.reference().
std::vector<std::uint64_t> exact_locate(const index::FmIndex& index,
                                        const std::vector<genome::Base>& read);

}  // namespace pim::align
