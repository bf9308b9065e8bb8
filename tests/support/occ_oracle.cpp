#include "tests/support/occ_oracle.h"

namespace pim::index {

OccTable::OccTable(const Bwt& bwt) {
  table_.resize(bwt.size() + 1);
  std::array<std::uint32_t, genome::kNumBases> running{};
  table_[0] = running;
  for (std::size_t i = 0; i < bwt.size(); ++i) {
    if (!bwt.is_sentinel(i)) {
      ++running[static_cast<std::size_t>(bwt.symbols.at(i))];
    }
    table_[i + 1] = running;
  }
}

}  // namespace pim::index
