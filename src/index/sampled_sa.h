// Sampled suffix array for locate().
//
// The full SA is one of the three structures the paper keeps in memory
// (BWT, MT, SA — the ~12 GB footprint). At rate 1, the paper's
// configuration and the default, the table *is* the suffix array SA-IS
// built, adopted without a copy: locate(row) reads one 32-bit word, which
// is what the simulated platform charges per located row.
//
// To let users trade memory for locate latency, rate > 1 samples by value:
// keep SA[i] whenever SA[i] % rate == 0, mark those rows in a rank-indexed
// bit vector, and recover unsampled rows by walking the LF mapping (each
// step moves one position back in the text, so at most rate-1 steps).
//
// All member structures sit behind the S42 storage seam: built tables own
// their buffers, from_parts() borrows the samples / row-marks / rank
// directory straight out of a mapped index artifact.
//
// A checksummed artifact can still be crafted, so locate never trusts the
// table: a row outside the SA throws std::out_of_range, and a sample past n,
// an LF walk longer than rate-1 steps or a rank past the samples throws
// std::runtime_error.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/index/bwt.h"
#include "src/index/occ_table.h"
#include "src/index/suffix_array.h"
#include "src/util/bit_vector.h"
#include "src/util/storage.h"

namespace pim::index {

class SampledSuffixArray {
 public:
  SampledSuffixArray() = default;

  /// rate == 1 adopts `sa` as the table; rate > 1 keeps every value
  /// divisible by the rate (and row 0) with its row marks and rank
  /// directory. `sa` is the sentinel-inclusive SA (num_rows entries).
  SampledSuffixArray(SuffixArray sa, std::uint32_t rate);

  /// Reassemble from persisted parts (owned or borrowed). `sampled_rows`
  /// must have one bit per SA row, `samples` one entry per set bit, and
  /// `rank_blocks` the cumulative popcount directory the sampling
  /// constructor builds (num_rows / 512 + 2 entries). At rate 1 every row
  /// must be marked and the directory must be the one persisted_marks()
  /// gives; both are then dropped. Throws std::invalid_argument on
  /// inconsistent parts.
  static SampledSuffixArray from_parts(std::uint32_t rate,
                                       util::BitVector sampled_rows,
                                       util::Storage<std::uint32_t> rank_blocks,
                                       util::Storage<std::uint32_t> samples);

  /// The row marks and rank directory as an artifact stores them.
  struct Marks {
    util::BitVector rows;
    util::Storage<std::uint32_t> rank_blocks;
  };
  /// Above rate 1 these borrow this table's own (valid while it lives). A
  /// rate-1 table holds neither, so they are built: every row marked, and
  /// rank block b = min(512 * b, num_rows).
  Marks persisted_marks() const;

  std::uint32_t rate() const { return rate_; }
  std::size_t num_rows() const {
    return rate_ == 1 ? samples_.size() : sampled_rows_.size();
  }

  /// Text position of the suffix at SA row `row`. `occ_oracle` supplies
  /// occ(nt, i); any implementation (full or sampled) may be plugged in.
  /// At rate 1 this is SA[row]; above it, at most rate-1 LF steps.
  template <typename OccFn>
  std::uint64_t locate(const Bwt& bwt, const CountTable& counts,
                       std::size_t row, OccFn&& occ) const {
    const std::size_t rows = num_rows();
    if (row >= rows) fail_row(row);
    if (rate_ == 1) {
      const std::uint64_t position = samples_[row];
      if (position >= rows) fail_corrupt("sample past the text");
      return position;
    }
    std::uint64_t steps = 0;
    std::size_t r = row;
    while (!sampled_rows_.get(r)) {
      if (steps + 1 == rate_) fail_corrupt("LF walk found no sampled row");
      // LF step: the sentinel row maps to row 0 (which is always sampled,
      // because SA[0] = n and we force-mark it).
      if (bwt.is_sentinel(r)) {
        r = 0;
      } else {
        const auto nt = bwt.symbols.at(r);
        r = static_cast<std::size_t>(counts.count(nt) + occ(nt, r));
        if (r >= rows) fail_corrupt("LF step past the last row");
      }
      ++steps;
    }
    const std::size_t sample = rank_sampled(r);
    if (sample >= samples_.size()) fail_corrupt("rank past the samples");
    return (samples_[sample] + steps) % rows;
  }

  std::size_t num_samples() const { return samples_.size(); }
  std::size_t memory_bytes() const {
    return samples_.size() * sizeof(std::uint32_t) +
           sampled_rows_.size() / 8 + rank_blocks_.size() * sizeof(std::uint32_t);
  }

  /// SA values at sampled rows, for serialization (with persisted_marks()).
  std::span<const std::uint32_t> samples() const { return samples_.span(); }

  static constexpr std::size_t kRankBlockBits = 512;

 private:
  /// Number of sampled rows strictly before `row` == index into samples_.
  std::size_t rank_sampled(std::size_t row) const;

  /// The rank directory of `num_rows` rows, all marked.
  static std::vector<std::uint32_t> full_rank_blocks(std::size_t num_rows);

  [[noreturn]] static void fail_row(std::size_t row);
  [[noreturn]] static void fail_corrupt(const char* what);

  std::uint32_t rate_ = 1;
  util::BitVector sampled_rows_;
  /// Cumulative popcount per block.
  util::Storage<std::uint32_t> rank_blocks_;
  /// SA values at sampled rows (every row at rate 1).
  util::Storage<std::uint32_t> samples_;
};

}  // namespace pim::index
