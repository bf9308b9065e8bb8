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
  const SampledOccTable sampled(bwt, bucket_width);
  auto& markers = markers_.vec();
  markers.resize(sampled.num_checkpoints());
  for (std::size_t k = 0; k < markers.size(); ++k) {
    for (const auto nt : genome::kAllBases) {
      const std::uint64_t value =
          counts.count(nt) + sampled.checkpoint(nt, k);
      markers[k][static_cast<std::size_t>(nt)] =
          static_cast<std::uint32_t>(value);
    }
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
