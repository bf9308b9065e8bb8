// The word-parallel Occ/LFM kernel — the software twin of the sub-array's
// XNOR_Match + DPU popcount (Fig. 3, Algorithm 1 line 9).
//
// It counts bases of the 2-bit-packed BWT over a row range [begin, end), one
// 64-bit word (32 lanes) at a time:
//   * XOR the word with the base repeated across every lane, so the lanes
//     holding that base become 00;
//   * fold each 2-bit lane to one bit (set iff both lane bits are zero);
//   * mask to the lanes inside the range and popcount;
//   * subtract one if the primary row is in range and the base is
//     Bwt::kSentinelFill (the dummy base stored in the sentinel cell).
// count4() returns all four bases in one pass from the lanes' low and high
// bits: T = popcount(lo & hi), C = popcount(lo) - T, G = popcount(hi) - T,
// and A is the rest of the range minus the sentinel.
//
// MarkerTable::lfm/lfm4 (the search hot path), the marker build (one
// count4 per bucket, summed into the rows as it goes) and the Count table
// build all call these two functions. The full-scan Occ oracle the tests
// compare them against lives in tests/support, outside the libraries. The
// kernel does no range check of its own: lfm/lfm4 check id <= bwt.size(),
// and the builds only pass ranges inside the BWT.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "src/genome/alphabet.h"
#include "src/index/bwt.h"
#include "src/index/occ_table.h"

namespace pim::index::occ_kernel {

/// The low bit of every 2-bit lane.
inline constexpr std::uint64_t kLaneLowBits = 0x5555555555555555ULL;

/// Calls fn(word, mask) for every packed word overlapping [begin, end);
/// `mask` keeps both bits of exactly the lanes inside the range.
/// Requires begin < end <= bwt.size().
template <typename Fn>
inline void for_each_word(const Bwt& bwt, std::size_t begin, std::size_t end,
                          Fn&& fn) {
  const std::uint64_t* words = bwt.symbols.words().data();
  const std::size_t first = begin >> 5;
  const std::size_t last = (end - 1) >> 5;
  std::uint64_t mask = ~0ULL << (2 * (begin & 31));
  for (std::size_t w = first; w < last; ++w) {
    fn(words[w], mask);
    mask = ~0ULL;
  }
  // Lanes [0, end mod 32) of the last word; all of them when end is aligned.
  fn(words[last], mask & (~0ULL >> (2 * ((32 - (end & 31)) & 31))));
}

/// Occurrences of `nt` in BWT rows [begin, end), sentinel excluded.
/// Requires begin <= end <= bwt.size().
inline std::uint64_t count(const Bwt& bwt, genome::Base nt, std::size_t begin,
                           std::size_t end) {
  if (begin >= end) return 0;
  const std::uint64_t pattern = kLaneLowBits * static_cast<std::uint64_t>(nt);
  std::uint64_t matches = 0;
  for_each_word(bwt, begin, end, [&](std::uint64_t word, std::uint64_t mask) {
    const std::uint64_t x = word ^ pattern;  // matching lanes are now 00
    matches += static_cast<std::uint64_t>(
        std::popcount(~(x | (x >> 1)) & kLaneLowBits & mask));
  });
  if (nt == Bwt::kSentinelFill && bwt.primary >= begin && bwt.primary < end) {
    --matches;
  }
  return matches;
}

static_assert(static_cast<int>(genome::Base::A) == 0 &&
                  static_cast<int>(genome::Base::C) == 1 &&
                  static_cast<int>(genome::Base::G) == 2 &&
                  static_cast<int>(genome::Base::T) == 3,
              "count4 decodes lanes as A=00, C=01, G=10, T=11");

/// Occurrences of every base in BWT rows [begin, end), sentinel excluded.
/// Requires begin <= end <= bwt.size().
inline BaseCounts count4(const Bwt& bwt, std::size_t begin, std::size_t end) {
  BaseCounts counts{};
  if (begin >= end) return counts;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t both = 0;
  for_each_word(bwt, begin, end, [&](std::uint64_t word, std::uint64_t mask) {
    const std::uint64_t l = word & kLaneLowBits & mask;
    const std::uint64_t h = (word >> 1) & kLaneLowBits & mask;
    lo += static_cast<std::uint64_t>(std::popcount(l));
    hi += static_cast<std::uint64_t>(std::popcount(h));
    both += static_cast<std::uint64_t>(std::popcount(l & h));
  });
  counts[static_cast<std::size_t>(genome::Base::T)] = both;
  counts[static_cast<std::size_t>(genome::Base::C)] = lo - both;
  counts[static_cast<std::size_t>(genome::Base::G)] = hi - both;
  counts[static_cast<std::size_t>(genome::Base::A)] =
      (end - begin) - (lo + hi - both);
  if (bwt.primary >= begin && bwt.primary < end) {
    --counts[static_cast<std::size_t>(Bwt::kSentinelFill)];
  }
  return counts;
}

}  // namespace pim::index::occ_kernel
