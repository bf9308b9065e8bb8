#include "tests/support/naive_search.h"

#include <algorithm>
#include <limits>

namespace pim::align {

std::vector<std::uint64_t> naive_exact_positions(
    const genome::PackedSequence& reference,
    const std::vector<genome::Base>& read) {
  std::vector<std::uint64_t> positions;
  if (read.empty() || read.size() > reference.size()) return positions;
  for (std::size_t p = 0; p + read.size() <= reference.size(); ++p) {
    bool match = true;
    for (std::size_t k = 0; k < read.size(); ++k) {
      if (reference.at(p + k) != read[k]) {
        match = false;
        break;
      }
    }
    if (match) positions.push_back(p);
  }
  return positions;
}

std::vector<std::pair<std::uint64_t, std::uint32_t>> naive_hamming_positions(
    const genome::PackedSequence& reference,
    const std::vector<genome::Base>& read, std::uint32_t max_mismatches) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> positions;
  if (read.empty() || read.size() > reference.size()) return positions;
  for (std::size_t p = 0; p + read.size() <= reference.size(); ++p) {
    std::uint32_t mismatches = 0;
    bool within = true;
    for (std::size_t k = 0; k < read.size(); ++k) {
      if (reference.at(p + k) != read[k]) {
        if (++mismatches > max_mismatches) {
          within = false;
          break;
        }
      }
    }
    if (within) positions.emplace_back(p, mismatches);
  }
  return positions;
}

namespace {

/// Minimum edit distance between `read` and any prefix of
/// reference[start, start + limit). Banded Ukkonen DP: only the diagonal
/// band of width 2*max_edits+1 is evaluated.
std::uint32_t min_edits_from(const genome::PackedSequence& reference,
                             std::size_t start,
                             const std::vector<genome::Base>& read,
                             std::uint32_t max_edits) {
  const std::int64_t m = static_cast<std::int64_t>(read.size());
  const std::int64_t avail = static_cast<std::int64_t>(reference.size()) -
                             static_cast<std::int64_t>(start);
  const std::int64_t limit =
      std::min<std::int64_t>(avail, m + static_cast<std::int64_t>(max_edits));
  const std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max() / 2;
  const std::int64_t band = static_cast<std::int64_t>(max_edits);

  // dp[j] = edits of read[0..i) vs reference[start..start+j).
  // Row 0 forbids j > 0: a match reported at `start` must actually consume
  // the reference base at `start` (backward search never emits alignments
  // whose leading reference characters are deleted — those are the same
  // alignment anchored one position to the right).
  std::vector<std::uint32_t> prev(static_cast<std::size_t>(limit) + 1, kInf);
  std::vector<std::uint32_t> curr(static_cast<std::size_t>(limit) + 1, kInf);
  prev[0] = 0;
  for (std::int64_t i = 1; i <= m; ++i) {
    std::fill(curr.begin(), curr.end(), kInf);
    const std::int64_t lo = std::max<std::int64_t>(0, i - band);
    const std::int64_t hi = std::min(limit, i + band);
    for (std::int64_t j = lo; j <= hi; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      std::uint32_t best = kInf;
      if (j > 0 && prev[ju - 1] != kInf) {
        const bool match =
            reference.at(start + ju - 1) == read[static_cast<std::size_t>(i - 1)];
        best = std::min(best, prev[ju - 1] + (match ? 0U : 1U));
      }
      if (prev[ju] != kInf) best = std::min(best, prev[ju] + 1);  // read ins
      if (j > 0 && curr[ju - 1] != kInf) {
        best = std::min(best, curr[ju - 1] + 1);  // ref consumed, read gap
      }
      curr[ju] = best;
    }
    std::swap(prev, curr);
  }
  std::uint32_t best = kInf;
  for (std::int64_t j = 0; j <= limit; ++j) {
    best = std::min(best, prev[static_cast<std::size_t>(j)]);
  }
  return best;
}

}  // namespace

std::vector<std::pair<std::uint64_t, std::uint32_t>> naive_edit_positions(
    const genome::PackedSequence& reference,
    const std::vector<genome::Base>& read, std::uint32_t max_edits) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> positions;
  if (read.empty()) return positions;
  for (std::size_t p = 0; p < reference.size(); ++p) {
    const std::uint32_t edits = min_edits_from(reference, p, read, max_edits);
    if (edits <= max_edits) positions.emplace_back(p, edits);
  }
  return positions;
}

}  // namespace pim::align
