#include "src/index/occ_table.h"

#include "src/index/occ_kernel.h"

namespace pim::index {

CountTable::CountTable(const Bwt& bwt)
    : occurrences_(occ_kernel::count4(bwt, 0, bwt.size())) {
  std::uint64_t cumulative = 1;  // '$' precedes everything
  for (std::size_t a = 0; a < genome::kNumBases; ++a) {
    counts_[a] = cumulative;
    cumulative += occurrences_[a];
  }
}

}  // namespace pim::index
