#include "src/index/occ_table.h"

#include <stdexcept>

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

SampledOccTable::SampledOccTable(const Bwt& bwt, std::uint32_t bucket_width)
    : d_(bucket_width) {
  if (bucket_width == 0) {
    throw std::invalid_argument("SampledOccTable: bucket width must be > 0");
  }
  const std::size_t num_checkpoints = bwt.size() / d_ + 1;
  auto& checkpoints = checkpoints_.vec();
  checkpoints.resize(num_checkpoints);
  for (std::size_t k = 1; k < num_checkpoints; ++k) {
    const BaseCounts bucket = occ_kernel::count4(bwt, (k - 1) * d_, k * d_);
    for (std::size_t a = 0; a < genome::kNumBases; ++a) {
      checkpoints[k][a] =
          checkpoints[k - 1][a] + static_cast<std::uint32_t>(bucket[a]);
    }
  }
}

std::uint64_t SampledOccTable::count_match(const Bwt& bwt, genome::Base nt,
                                           std::size_t i) const {
  if (i > bwt.size()) throw std::out_of_range("SampledOccTable::count_match");
  return occ_kernel::count(bwt, nt, i - (i % d_), i);
}

std::uint64_t SampledOccTable::occ(const Bwt& bwt, genome::Base nt,
                                   std::size_t i) const {
  const std::uint64_t residual = count_match(bwt, nt, i);  // range-checked
  return checkpoint(nt, i / d_) + residual;
}

}  // namespace pim::index
