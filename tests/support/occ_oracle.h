// The full Occ table: Occ[i][nt] = occurrences of nt in BWT[0, i), one row
// per BWT position, filled by a scalar scan. O(n) words, so it is a test
// oracle only: the word-parallel kernel (src/index/occ_kernel.h) and the
// Marker Table built on it are held against it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/index/bwt.h"

namespace pim::index {

class OccTable {
 public:
  explicit OccTable(const Bwt& bwt);

  /// Occurrences of nt in BWT[0, i), the sentinel row excluded. Throws
  /// std::out_of_range if i > bwt.size().
  std::uint64_t occ(genome::Base nt, std::size_t i) const {
    return table_.at(i)[static_cast<std::size_t>(nt)];
  }

 private:
  std::vector<std::array<std::uint32_t, genome::kNumBases>> table_;
};

}  // namespace pim::index
