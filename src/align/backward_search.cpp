#include "src/align/backward_search.h"

#include "src/align/search_core.h"

namespace pim::align {

ExactResult exact_search(const index::FmIndex& index,
                         const std::vector<genome::Base>& read) {
  return exact_search_core(index, read);
}

std::vector<std::uint64_t> exact_locate(const index::FmIndex& index,
                                        const std::vector<genome::Base>& read) {
  std::vector<std::uint64_t> positions;
  exact_locate_core(index, read, positions);
  return positions;
}

}  // namespace pim::align
