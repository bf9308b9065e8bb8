#include "tests/support/search_trace.h"

namespace pim::align {

std::vector<index::SaInterval> exact_search_trace(
    const index::FmIndex& index, const std::vector<genome::Base>& read) {
  std::vector<index::SaInterval> trace;
  trace.reserve(read.size());
  index::SaInterval interval = index.whole_interval();
  for (auto it = read.rbegin(); it != read.rend(); ++it) {
    interval = index.extend(interval, *it);
    trace.push_back(interval);
    if (!interval.valid()) break;
  }
  return trace;
}

}  // namespace pim::align
