#include "src/align/global_align.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/genome/synthetic_genome.h"
#include "src/util/rng.h"

namespace pim::align {
namespace {

using genome::Base;
using genome::encode;

// The full (m+1) x (n+1) DP that glocal_align's score band must reproduce
// exactly: same recurrence, same diag > up > left tie order, same first
// maximum of the last row, same traceback.
GlocalResult full_matrix_glocal(const std::vector<Base>& window,
                                const std::vector<Base>& read,
                                const SwScoring& scoring) {
  const std::size_t n = window.size();
  const std::size_t m = read.size();
  const auto idx = [&](std::size_t i, std::size_t j) {
    return i * (n + 1) + j;
  };
  std::vector<std::int32_t> dp((m + 1) * (n + 1), 0);
  std::vector<std::uint8_t> dir((m + 1) * (n + 1), 0);
  for (std::size_t i = 1; i <= m; ++i) {
    dp[idx(i, 0)] = dp[idx(i - 1, 0)] + scoring.gap_extend;
    dir[idx(i, 0)] = 2;
  }
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      const std::int32_t diag =
          dp[idx(i - 1, j - 1)] +
          (read[i - 1] == window[j - 1] ? scoring.match : scoring.mismatch);
      const std::int32_t up = dp[idx(i - 1, j)] + scoring.gap_extend;
      const std::int32_t left = dp[idx(i, j - 1)] + scoring.gap_extend;
      std::int32_t best = diag;
      std::uint8_t d = 1;
      if (up > best) {
        best = up;
        d = 2;
      }
      if (left > best) {
        best = left;
        d = 3;
      }
      dp[idx(i, j)] = best;
      dir[idx(i, j)] = d;
    }
  }
  std::size_t best_j = 0;
  for (std::size_t j = 1; j <= n; ++j) {
    if (dp[idx(m, j)] > dp[idx(m, best_j)]) best_j = j;
  }
  GlocalResult result;
  result.score = dp[idx(m, best_j)];
  result.ref_end = best_j;
  std::vector<CigarEntry> reversed;
  const auto push = [&](CigarOp op) {
    if (!reversed.empty() && reversed.back().op == op) {
      ++reversed.back().length;
    } else {
      reversed.push_back(CigarEntry{op, 1});
    }
  };
  std::size_t i = m, j = best_j;
  while (i > 0) {
    switch (dir[idx(i, j)]) {
      case 1:
        push(read[i - 1] == window[j - 1] ? CigarOp::kMatch
                                          : CigarOp::kMismatch);
        --i;
        --j;
        break;
      case 2:
        push(CigarOp::kInsertion);
        --i;
        break;
      default:
        push(CigarOp::kDeletion);
        --j;
        break;
    }
  }
  result.ref_begin = j;
  result.cigar.assign(reversed.rbegin(), reversed.rend());
  for (const auto& entry : result.cigar) {
    if (entry.op != CigarOp::kMatch) result.edits += entry.length;
  }
  return result;
}

void expect_same(const GlocalResult& got, const GlocalResult& want,
                 const std::string& where) {
  EXPECT_EQ(got.score, want.score) << where;
  EXPECT_EQ(got.ref_begin, want.ref_begin) << where;
  EXPECT_EQ(got.ref_end, want.ref_end) << where;
  EXPECT_EQ(got.edits, want.edits) << where;
  ASSERT_EQ(got.cigar.size(), want.cigar.size()) << where;
  for (std::size_t k = 0; k < got.cigar.size(); ++k) {
    EXPECT_EQ(got.cigar[k].op, want.cigar[k].op) << where << " entry " << k;
    EXPECT_EQ(got.cigar[k].length, want.cigar[k].length)
        << where << " entry " << k;
  }
}

TEST(GlocalAlign, PerfectMatchAnywhereInWindow) {
  const auto window = encode("TTTTACGTACGTTTTT");
  const auto read = encode("ACGTACGT");
  const auto r = glocal_align(window, read);
  EXPECT_EQ(r.score, 16);
  EXPECT_EQ(r.ref_begin, 4U);
  EXPECT_EQ(r.ref_end, 12U);
  EXPECT_EQ(r.edits, 0U);
  EXPECT_EQ(glocal_cigar_string(r), "8M");
}

TEST(GlocalAlign, EveryReadBaseConsumed) {
  // Unlike local SW, a bad read prefix cannot be clipped away.
  const auto window = encode("GGGGGGGGGGGG");
  const auto read = encode("TTTTGGGG");
  const auto r = glocal_align(window, read);
  std::uint32_t read_consumed = 0;
  for (const auto& e : r.cigar) {
    if (e.op != CigarOp::kDeletion) read_consumed += e.length;
  }
  EXPECT_EQ(read_consumed, read.size());
  EXPECT_EQ(r.edits, 4U);  // the four Ts mismatch
}

TEST(GlocalAlign, SubstitutionCigar) {
  const auto window = encode("AAACGTACGTAAA");
  const auto read = encode("CGTGCGT");
  const auto r = glocal_align(window, read);
  EXPECT_EQ(r.edits, 1U);
  EXPECT_EQ(glocal_cigar_string(r), "7M");  // X folded into M
}

TEST(GlocalAlign, DeletionCigar) {
  const auto window = encode("TTACGTACGTTT");
  const auto read = encode("ACGTCGT");  // missing an A
  const auto r = glocal_align(window, read);
  EXPECT_EQ(glocal_cigar_string(r), "4M1D3M");
  EXPECT_EQ(r.edits, 1U);
  EXPECT_EQ(r.ref_end - r.ref_begin, 8U);  // consumes 8 reference bases
}

TEST(GlocalAlign, InsertionCigar) {
  const auto window = encode("TTACGTCGTTT");
  const auto read = encode("ACGTACGT");  // extra A
  const auto r = glocal_align(window, read);
  EXPECT_EQ(glocal_cigar_string(r), "4M1I3M");
  EXPECT_EQ(r.edits, 1U);
  EXPECT_EQ(r.ref_end - r.ref_begin, 7U);
}

TEST(GlocalAlign, EmptyInputsThrow) {
  EXPECT_THROW(glocal_align({}, encode("A")), std::invalid_argument);
  EXPECT_THROW(glocal_align(encode("A"), {}), std::invalid_argument);
}

TEST(GlocalAlign, RefSpanMatchesCigar) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 400;
  spec.seed = 3;
  const auto text = genome::generate_reference(spec);
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t len = 20 + rng.bounded(30);
    const std::size_t start = rng.bounded(text.size() - len - 8);
    auto read = text.slice(start, start + len);
    // Random edit.
    if (trial % 3 == 0) {
      read[rng.bounded(read.size())] =
          static_cast<genome::Base>(rng.bounded(4));
    } else if (trial % 3 == 1) {
      read.erase(read.begin() + static_cast<long>(rng.bounded(read.size())));
    }
    const auto window = text.slice(start, start + len + 8);
    const auto r = glocal_align(window, read);
    std::uint64_t ref_consumed = 0, read_consumed = 0;
    for (const auto& e : r.cigar) {
      if (e.op != CigarOp::kInsertion) ref_consumed += e.length;
      if (e.op != CigarOp::kDeletion) read_consumed += e.length;
    }
    EXPECT_EQ(ref_consumed, r.ref_end - r.ref_begin) << trial;
    EXPECT_EQ(read_consumed, read.size()) << trial;
    EXPECT_LE(r.edits, 2U) << trial;  // at most the planted edit + slack
  }
}

TEST(GlocalAlign, ScoreMatchesCigarAccounting) {
  const auto window = encode("ACGTACGTACGT");
  const auto read = encode("ACGTTCGT");
  const SwScoring scoring;
  const auto r = glocal_align(window, read, scoring);
  std::int32_t recomputed = 0;
  for (const auto& e : r.cigar) {
    switch (e.op) {
      case CigarOp::kMatch:
        recomputed += scoring.match * static_cast<std::int32_t>(e.length);
        break;
      case CigarOp::kMismatch:
        recomputed += scoring.mismatch * static_cast<std::int32_t>(e.length);
        break;
      case CigarOp::kInsertion:
      case CigarOp::kDeletion:
        recomputed += scoring.gap_extend * static_cast<std::int32_t>(e.length);
        break;
    }
  }
  EXPECT_EQ(r.score, recomputed);
}

// The score band must not change a single result: randomized reads with
// substitutions and indels against windows shorter than, equal to and
// longer than the read, under the default scoring, the WFA penalties
// (match 0, which falls back to the full matrix) and two other scorings.
TEST(GlocalAlign, BandedEqualsFullMatrix) {
  const SwScoring scorings[] = {
      SwScoring{},                                   // SamWriter's scoring
      SwScoring{.match = 0, .mismatch = -4, .gap_open = -6, .gap_extend = -2},
      SwScoring{.match = 1, .mismatch = -3, .gap_open = -5, .gap_extend = -5},
      SwScoring{.match = 5, .mismatch = -4, .gap_open = -1, .gap_extend = -1},
  };
  util::Xoshiro256 rng(2024);
  const auto random_base = [&] { return static_cast<Base>(rng.bounded(4)); };
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t m = 1 + rng.bounded(trial % 4 == 0 ? 12 : 110);
    std::vector<Base> source(m + 16);
    for (auto& b : source) b = random_base();
    std::vector<Base> read(source.begin(),
                           source.begin() + static_cast<long>(m));
    const std::size_t edits = rng.bounded(trial % 5 == 0 ? 12 : 5);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t at = rng.bounded(read.size());
      const auto it = read.begin() + static_cast<long>(at);
      switch (rng.bounded(3)) {
        case 0: *it = random_base(); break;
        case 1: read.insert(it, random_base()); break;
        default:
          if (read.size() > 1) read.erase(it);
      }
    }
    // Window: the hit-anchored case (read length + pad), exactly the read
    // length, or shorter than the read; sometimes starting a few bases
    // before or after the read's origin.
    const std::size_t shift = trial % 3 == 0 ? rng.bounded(4) : 0;
    std::size_t n = read.size() + rng.bounded(8);
    if (trial % 7 == 1) n = read.size();
    if (trial % 7 == 2) n = 1 + rng.bounded(read.size());
    n = std::min(n, source.size() - shift);
    const auto first = source.begin() + static_cast<long>(shift);
    const std::vector<Base> window(first, first + static_cast<long>(n));
    for (const auto& scoring : scorings) {
      expect_same(glocal_align(window, read, scoring),
                  full_matrix_glocal(window, read, scoring),
                  "trial " + std::to_string(trial) + " m=" +
                      std::to_string(read.size()) + " n=" + std::to_string(n) +
                      " match=" + std::to_string(scoring.match));
    }
  }
}

}  // namespace
}  // namespace pim::align
