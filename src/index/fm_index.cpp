#include "src/index/fm_index.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace pim::index {

FmIndex FmIndex::build(const genome::PackedSequence& reference,
                       const FmIndexConfig& config) {
  return build_from_sa(reference, build_suffix_array(reference), config);
}

FmIndex FmIndex::build_from_sa(const genome::PackedSequence& reference,
                               SuffixArray sa,
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
  index.sa_ = std::move(sa);
  index.build_kmer_table();
  return index;
}

FmIndex FmIndex::from_parts(const FmIndexConfig& config,
                            genome::PackedSequence reference, Bwt bwt,
                            CountTable counts, MarkerTable markers,
                            util::Storage<std::uint32_t> sa) {
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
  if (sa.size() != bwt.size()) {
    throw std::invalid_argument(
        "FmIndex::from_parts: suffix array length inconsistent with BWT");
  }
  FmIndex index;
  index.config_ = config;
  index.reference_ = std::move(reference);
  index.bwt_ = std::move(bwt);
  index.counts_ = std::move(counts);
  index.markers_ = std::move(markers);
  index.sa_ = std::move(sa);
  index.build_kmer_table();
  return index;
}

void FmIndex::fail_row(std::size_t row) {
  throw std::out_of_range("FmIndex::locate: row " + std::to_string(row) +
                          " past the suffix array");
}

void FmIndex::fail_position(std::size_t row) {
  throw std::runtime_error("FmIndex::locate: corrupt index (SA row " +
                           std::to_string(row) + " past the text)");
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

std::uint32_t FmIndex::kmer_length_for(std::uint64_t n) {
  if (n >= std::numeric_limits<std::uint32_t>::max()) return 0;
  std::uint32_t k = 0;
  while (k < 12 && (std::uint64_t{16} << (2 * (k + 1))) <= n) ++k;
  return k;
}

void FmIndex::build_kmer_table() {
  kmer_length_ = kmer_length_for(reference_size());
  kmer_table_.clear();
  if (kmer_length_ == 0) return;
  // In place: a level-l entry sits at its suffix code s < 4^l, and prepending
  // base b gives code b * 4^l + s, so the children of s land at s itself
  // (read first) and past the level, never on an entry still to be read.
  kmer_table_.resize(std::size_t{1} << (2 * kmer_length_));
  kmer_table_[0] = {0, static_cast<std::uint32_t>(num_rows())};
  for (std::uint32_t level = 0; level < kmer_length_; ++level) {
    const std::size_t width = std::size_t{1} << (2 * level);
    for (std::size_t s = 0; s < width; ++s) {
      const KmerEntry parent = kmer_table_[s];
      if (parent.high == 0) {
        for (std::size_t b = 1; b < genome::kNumBases; ++b) {
          kmer_table_[b * width + s] = parent;
        }
        continue;
      }
      // Stage one checks for one row only after it has matched a base.
      const bool one_row = level > 0 && parent.high - parent.low == 1;
      const auto next = extend4({parent.low, parent.high});
      for (std::size_t b = 0; b < genome::kNumBases; ++b) {
        kmer_table_[b * width + s] =
            next[b].valid()
                ? KmerEntry{static_cast<std::uint32_t>(next[b].low),
                            static_cast<std::uint32_t>(next[b].high)}
                : KmerEntry{one_row ? 1U : 0U, 0};
      }
    }
  }
}

SearchStart FmIndex::exact_start(std::span<const genome::Base> read) const {
  const std::size_t m = read.size();
  if (kmer_length_ == 0 || m <= kmer_length_) {
    return {whole_interval(), 0, false};
  }
  std::size_t code = 0;
  for (std::size_t i = m - kmer_length_; i < m; ++i) {
    code = code << 2 | static_cast<std::size_t>(read[i]);
  }
  const KmerEntry entry = kmer_table_[code];
  if (entry.high == 0) return {SaInterval{}, kmer_length_, entry.low != 0};
  return {{entry.low, entry.high}, kmer_length_, false};
}

FmIndex::MemoryFootprint FmIndex::memory_footprint() const {
  MemoryFootprint fp;
  fp.bwt_bytes = bwt_.symbols.memory_bytes();
  fp.marker_bytes = markers_.memory_bytes();
  fp.sa_bytes = sa_.size() * sizeof(std::uint32_t);
  return fp;
}

}  // namespace pim::index
