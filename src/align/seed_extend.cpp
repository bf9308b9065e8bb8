#include "src/align/seed_extend.h"

#include "src/align/backward_search.h"

namespace pim::align {

namespace {

/// Software searcher: the FM-index instantiation of the Searcher concept.
struct FmSearcher {
  const index::FmIndex* index;

  ExactResult search(const std::vector<genome::Base>& seed) const {
    return exact_search(*index, seed);
  }
  std::vector<std::uint64_t> locate(const index::SaInterval& interval) const {
    return index->locate_all(interval);
  }
};

}  // namespace

const char* to_string(ExtensionKernel kernel) {
  switch (kernel) {
    case ExtensionKernel::kBandedSw: return "banded_sw";
    case ExtensionKernel::kWfa: return "wfa";
  }
  return "unknown";
}

SeedExtendResult seed_extend_align(const index::FmIndex& index,
                                   const std::vector<genome::Base>& read,
                                   const SeedExtendOptions& options) {
  return seed_extend_core(FmSearcher{&index}, index.reference(), read,
                          options);
}

}  // namespace pim::align
