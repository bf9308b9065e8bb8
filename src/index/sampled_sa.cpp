#include "src/index/sampled_sa.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pim::index {

SampledSuffixArray::SampledSuffixArray(SuffixArray sa, std::uint32_t rate)
    : rate_(rate) {
  if (rate == 0) throw std::invalid_argument("SampledSuffixArray: rate 0");
  if (rate == 1) {
    samples_ = std::move(sa);
    return;
  }
  sampled_rows_.resize(sa.size());
  for (std::size_t row = 0; row < sa.size(); ++row) {
    // Value-based sampling; row 0 (SA[0] == n, the '$' suffix) is always
    // marked so LF walks through the sentinel terminate.
    if (sa[row] % rate_ == 0 || row == 0) {
      sampled_rows_.set(row, true);
    }
  }
  auto& samples = samples_.vec();
  samples.reserve(sa.size() / rate_ + 2);
  for (std::size_t row = 0; row < sa.size(); ++row) {
    if (sampled_rows_.get(row)) samples.push_back(sa[row]);
  }
  // Rank directory: cumulative sampled count at each block boundary.
  const std::size_t blocks = sa.size() / kRankBlockBits + 1;
  auto& rank_blocks = rank_blocks_.vec();
  rank_blocks.resize(blocks + 1, 0);
  std::uint32_t running = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    rank_blocks[b] = running;
    const std::size_t begin = b * kRankBlockBits;
    const std::size_t end = std::min(begin + kRankBlockBits, sa.size());
    running +=
        static_cast<std::uint32_t>(sampled_rows_.popcount_range(begin, end));
  }
  rank_blocks[blocks] = running;
}

std::vector<std::uint32_t> SampledSuffixArray::full_rank_blocks(
    std::size_t num_rows) {
  std::vector<std::uint32_t> blocks(num_rows / kRankBlockBits + 2);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    blocks[b] =
        static_cast<std::uint32_t>(std::min(b * kRankBlockBits, num_rows));
  }
  return blocks;
}

SampledSuffixArray SampledSuffixArray::from_parts(
    std::uint32_t rate, util::BitVector sampled_rows,
    util::Storage<std::uint32_t> rank_blocks,
    util::Storage<std::uint32_t> samples) {
  if (rate == 0) throw std::invalid_argument("SampledSuffixArray: rate 0");
  if (samples.size() != sampled_rows.popcount()) {
    throw std::invalid_argument(
        "SampledSuffixArray: samples/sampled-row count mismatch");
  }
  const std::size_t blocks = sampled_rows.size() / kRankBlockBits + 1;
  if (rank_blocks.size() != blocks + 1) {
    throw std::invalid_argument(
        "SampledSuffixArray: rank directory size mismatch");
  }
  if (rank_blocks.size() > 0 &&
      rank_blocks[rank_blocks.size() - 1] != samples.size()) {
    throw std::invalid_argument(
        "SampledSuffixArray: rank directory total mismatch");
  }
  if (!sampled_rows.empty() && !sampled_rows.get(0)) {
    throw std::invalid_argument(
        "SampledSuffixArray: row 0 must be sampled (LF walk terminator)");
  }
  SampledSuffixArray sa;
  sa.rate_ = rate;
  sa.samples_ = std::move(samples);
  if (rate == 1) {
    // Every row is sampled, so the samples are the SA and neither side
    // structure is consulted: check that they say so, then drop them.
    const auto full = full_rank_blocks(sampled_rows.size());
    if (sa.samples_.size() != sampled_rows.size() ||
        !std::equal(full.begin(), full.end(), rank_blocks.span().begin())) {
      throw std::invalid_argument(
          "SampledSuffixArray: rate 1 with unsampled rows");
    }
    return sa;
  }
  sa.sampled_rows_ = std::move(sampled_rows);
  sa.rank_blocks_ = std::move(rank_blocks);
  return sa;
}

SampledSuffixArray::Marks SampledSuffixArray::persisted_marks() const {
  if (rate_ == 1) {
    return {util::BitVector(samples_.size(), /*value=*/true),
            full_rank_blocks(samples_.size())};
  }
  return {util::BitVector::borrowed(sampled_rows_.words().data(),
                                    sampled_rows_.size()),
          util::Storage<std::uint32_t>::borrowed(rank_blocks_.data(),
                                                 rank_blocks_.size())};
}

std::size_t SampledSuffixArray::rank_sampled(std::size_t row) const {
  const std::size_t block = row / kRankBlockBits;
  return rank_blocks_[block] +
         sampled_rows_.popcount_range(block * kRankBlockBits, row);
}

void SampledSuffixArray::fail_row(std::size_t row) {
  throw std::out_of_range("SampledSuffixArray: row " + std::to_string(row) +
                          " past the suffix array");
}

void SampledSuffixArray::fail_corrupt(const char* what) {
  throw std::runtime_error(std::string("SampledSuffixArray: corrupt index (") +
                           what + ")");
}

}  // namespace pim::index
