#include "src/index/marker_table.h"

#include <stdexcept>

#include "src/index/occ_kernel.h"

namespace pim::index {

MarkerTable::MarkerTable(const Bwt& bwt, const CountTable& counts,
                         std::uint32_t bucket_width)
    : d_(bucket_width) {
  if (bucket_width == 0) {
    throw std::invalid_argument("MarkerTable: bucket width must be > 0");
  }
  // One pass: row k holds Count + Occ at k*d, and the running Occ grows by
  // one bucket's kernel count between rows.
  auto& markers = markers_.vec();
  markers.resize(bwt.size() / d_ + 1);
  BaseCounts running{};
  for (std::size_t k = 0;; ++k) {
    for (std::size_t a = 0; a < genome::kNumBases; ++a) {
      markers[k][a] =
          static_cast<std::uint32_t>(counts.counts_raw()[a] + running[a]);
    }
    if (k + 1 == markers.size()) break;
    const BaseCounts bucket = occ_kernel::count4(bwt, k * d_, (k + 1) * d_);
    for (std::size_t a = 0; a < genome::kNumBases; ++a) running[a] += bucket[a];
  }
}

MarkerTable MarkerTable::from_parts(std::uint32_t bucket_width,
                                    util::Storage<OccCheckpoint> markers) {
  if (bucket_width == 0) {
    throw std::invalid_argument("MarkerTable: bucket width must be > 0");
  }
  MarkerTable table;
  table.d_ = bucket_width;
  table.markers_ = std::move(markers);
  return table;
}

std::uint64_t MarkerTable::lfm(const Bwt& bwt, genome::Base nt,
                               std::size_t id) const {
  if (id > bwt.size()) throw std::out_of_range("MarkerTable::lfm");
  const std::size_t k = id / d_;
  return marker(nt, k) + occ_kernel::count(bwt, nt, k * d_, id);
}

BaseCounts MarkerTable::lfm4(const Bwt& bwt, std::size_t id) const {
  if (id > bwt.size()) throw std::out_of_range("MarkerTable::lfm4");
  const std::size_t k = id / d_;
  BaseCounts result = occ_kernel::count4(bwt, k * d_, id);
  for (std::size_t a = 0; a < genome::kNumBases; ++a) {
    result[a] += markers_[k][a];
  }
  return result;
}

}  // namespace pim::index
