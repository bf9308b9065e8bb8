#include "src/align/inexact_search.h"

#include <algorithm>
#include <limits>

#include "src/align/search_core.h"

namespace pim::align {

std::uint32_t InexactResult::best_diffs() const {
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  for (const auto& hit : hits) best = std::min(best, hit.diffs);
  return best;
}

std::uint64_t InexactResult::total_occurrences() const {
  std::uint64_t total = 0;
  for (const auto& hit : hits) total += hit.interval.count();
  return total;
}

std::vector<std::uint32_t> compute_lower_bound_d(
    const index::FmIndex& index, const std::vector<genome::Base>& read) {
  return compute_lower_bound_d_core(index, read);
}

InexactResult inexact_search(const index::FmIndex& index,
                             const std::vector<genome::Base>& read,
                             const InexactOptions& options) {
  return inexact_search_core(index, read, options);
}

std::vector<std::pair<std::uint64_t, std::uint32_t>> inexact_locate(
    const index::FmIndex& index, const std::vector<genome::Base>& read,
    const InexactOptions& options) {
  std::vector<std::uint64_t> positions;
  return inexact_locate_core(index, read, options, positions);
}

}  // namespace pim::align
