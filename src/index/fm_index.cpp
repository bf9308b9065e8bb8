#include "src/index/fm_index.h"

#include <algorithm>
#include <stdexcept>

namespace pim::index {

FmIndex FmIndex::build(const genome::PackedSequence& reference,
                       const FmIndexConfig& config) {
  return build_from_sa(reference, build_suffix_array(reference), config);
}

FmIndex FmIndex::build_from_sa(const genome::PackedSequence& reference,
                               const SuffixArray& sa,
                               const FmIndexConfig& config) {
  FmIndex index;
  index.config_ = config;
  // Always an owned copy: a borrowed (mapped) input must not leave the
  // index pointing into a mapping it does not own.
  const auto words = reference.words();
  index.reference_ = genome::PackedSequence::from_words(
      std::vector<std::uint64_t>(words.begin(), words.end()), reference.size());
  index.bwt_ = build_bwt(reference, sa);
  index.counts_ = CountTable(index.bwt_);
  index.markers_ = MarkerTable(index.bwt_, index.counts_, config.bucket_width);
  index.sampled_sa_ =
      SampledSuffixArray(sa, index.bwt_, index.counts_, config.sa_sample_rate);
  return index;
}

FmIndex FmIndex::from_parts(const FmIndexConfig& config,
                            genome::PackedSequence reference, Bwt bwt,
                            CountTable counts, MarkerTable markers,
                            SampledSuffixArray sampled_sa) {
  if (bwt.size() == 0) {
    throw std::invalid_argument("FmIndex::from_parts: empty BWT");
  }
  if (reference.size() != bwt.size() - 1) {
    throw std::invalid_argument(
        "FmIndex::from_parts: reference length != BWT rows - 1");
  }
  if (bwt.primary >= bwt.size()) {
    throw std::invalid_argument(
        "FmIndex::from_parts: primary row out of range");
  }
  if (markers.bucket_width() != config.bucket_width) {
    throw std::invalid_argument(
        "FmIndex::from_parts: marker bucket width != config");
  }
  if (markers.num_checkpoints() != bwt.size() / config.bucket_width + 1) {
    throw std::invalid_argument(
        "FmIndex::from_parts: marker row count inconsistent with BWT");
  }
  if (sampled_sa.sampled_rows().size() != bwt.size()) {
    throw std::invalid_argument(
        "FmIndex::from_parts: sampled-SA row count inconsistent with BWT");
  }
  FmIndex index;
  index.config_ = config;
  index.reference_ = std::move(reference);
  index.bwt_ = std::move(bwt);
  index.counts_ = std::move(counts);
  index.markers_ = std::move(markers);
  index.sampled_sa_ = std::move(sampled_sa);
  return index;
}

std::uint64_t FmIndex::locate(std::size_t row) const {
  return sampled_sa_.locate(
      bwt_, counts_, row,
      [this](genome::Base nt, std::size_t i) { return occ(nt, i); });
}

std::vector<std::uint64_t> FmIndex::locate_all(
    const SaInterval& interval) const {
  std::vector<std::uint64_t> positions;
  locate_all_into(interval, positions);
  return positions;
}

void FmIndex::locate_all_into(const SaInterval& interval,
                              std::vector<std::uint64_t>& out) const {
  out.clear();
  if (!interval.valid()) return;
  out.reserve(interval.count());
  for (std::uint64_t row = interval.low; row < interval.high; ++row) {
    out.push_back(locate(static_cast<std::size_t>(row)));
  }
  std::sort(out.begin(), out.end());
}

void FmIndex::finish_one_row(const SaInterval& row,
                             std::span<const genome::Base> prefix,
                             std::vector<std::uint64_t>& out) const {
  out.clear();
  const std::uint64_t q = locate(static_cast<std::size_t>(row.low));
  if (q < prefix.size()) return;
  const std::uint64_t p = q - prefix.size();
  if (reference_.matches_at(static_cast<std::size_t>(p), prefix)) {
    out.push_back(p);
  }
}

FmIndex::MemoryFootprint FmIndex::memory_footprint() const {
  MemoryFootprint fp;
  fp.bwt_bytes = bwt_.symbols.memory_bytes();
  fp.marker_bytes = markers_.memory_bytes();
  fp.sa_bytes = sampled_sa_.memory_bytes();
  return fp;
}

}  // namespace pim::index
