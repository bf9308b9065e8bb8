#include "src/align/wfa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/align/global_align.h"
#include "src/genome/alphabet.h"
#include "src/util/rng.h"

namespace pim::align {
namespace {

using genome::Base;
using genome::encode;

// Test-local reference: O(nm) semi-global gap-affine minimum-penalty DP,
// same alignment model as wfa_align (pattern fully consumed, text free at
// both ends). Ground truth for the wavefront recurrences.
std::int64_t reference_penalty(const std::vector<Base>& text,
                               const std::vector<Base>& pattern,
                               const WfaPenalties& p) {
  const std::size_t n = text.size();
  const std::size_t m = pattern.size();
  constexpr std::int64_t kInf = 1'000'000'000;
  const std::int64_t x = p.mismatch;
  const std::int64_t oe = static_cast<std::int64_t>(p.gap_open) + p.gap_extend;
  const std::int64_t e = p.gap_extend;

  // Rows = pattern (v), cols = text (h). I = gap in text (pattern
  // consumed), D = gap in pattern (text consumed).
  std::vector<std::int64_t> mm(n + 1, 0), ii(n + 1, kInf), dd(n + 1, kInf);
  for (std::size_t v = 1; v <= m; ++v) {
    std::vector<std::int64_t> mm2(n + 1, kInf), ii2(n + 1, kInf),
        dd2(n + 1, kInf);
    ii2[0] = std::min(mm[0] + oe, ii[0] + e);
    mm2[0] = ii2[0];
    for (std::size_t h = 1; h <= n; ++h) {
      ii2[h] = std::min(mm[h] + oe, ii[h] + e);
      dd2[h] = std::min(mm2[h - 1] + oe, dd2[h - 1] + e);
      const std::int64_t sub =
          mm[h - 1] + (pattern[v - 1] == text[h - 1] ? 0 : x);
      mm2[h] = std::min({sub, ii2[h], dd2[h]});
    }
    mm = mm2;
    ii = ii2;
    dd = dd2;
  }
  std::int64_t best = kInf;
  for (std::size_t h = 0; h <= n; ++h) best = std::min(best, mm[h]);
  return best;
}

// The CIGAR must be internally consistent: consume the full pattern, span
// exactly [text_begin, text_end) of the text, match the reported penalty
// score under the gap-affine model, and match `edits`.
void expect_cigar_consistent(const WfaResult& r,
                             const std::vector<Base>& text,
                             const std::vector<Base>& pattern,
                             const WfaPenalties& p) {
  ASSERT_TRUE(r.aligned);
  std::uint64_t pattern_used = 0, text_used = 0;
  std::int64_t penalty = 0;
  std::uint64_t v = 0, h = r.text_begin;
  for (const auto& entry : r.cigar) {
    switch (entry.op) {
      case CigarOp::kMatch:
        for (std::uint32_t i = 0; i < entry.length; ++i, ++v, ++h) {
          ASSERT_LT(h, text.size());
          ASSERT_LT(v, pattern.size());
          EXPECT_EQ(text[h], pattern[v]) << "M over a mismatch at " << h;
        }
        pattern_used += entry.length;
        text_used += entry.length;
        break;
      case CigarOp::kMismatch:
        for (std::uint32_t i = 0; i < entry.length; ++i, ++v, ++h) {
          EXPECT_NE(text[h], pattern[v]) << "X over a match at " << h;
        }
        penalty += static_cast<std::int64_t>(p.mismatch) * entry.length;
        pattern_used += entry.length;
        text_used += entry.length;
        break;
      case CigarOp::kInsertion:
        penalty += p.gap_open +
                   static_cast<std::int64_t>(p.gap_extend) * entry.length;
        pattern_used += entry.length;
        v += entry.length;
        break;
      case CigarOp::kDeletion:
        penalty += p.gap_open +
                   static_cast<std::int64_t>(p.gap_extend) * entry.length;
        text_used += entry.length;
        h += entry.length;
        break;
    }
  }
  EXPECT_EQ(pattern_used, pattern.size());
  EXPECT_EQ(r.text_begin + text_used, r.text_end);
  EXPECT_EQ(penalty, r.score);
  EXPECT_EQ(r.edits, cigar_edits(r.cigar));
}

TEST(Wfa, ExactSubstringScoresZero) {
  const auto text = encode("TTTTACGTACGTTTT");
  const auto pattern = encode("ACGTACGT");
  const WfaResult r = wfa_align(text, pattern);
  ASSERT_TRUE(r.aligned);
  EXPECT_EQ(r.score, 0);
  EXPECT_EQ(r.text_begin, 4U);
  EXPECT_EQ(r.text_end, 12U);
  EXPECT_EQ(cigar_to_string(r.cigar), "8M");
  EXPECT_EQ(r.edits, 0U);
}

TEST(Wfa, EmptyPatternAlignsTrivially) {
  const WfaResult r = wfa_align(encode("ACGT"), {});
  EXPECT_TRUE(r.aligned);
  EXPECT_EQ(r.score, 0);
  EXPECT_TRUE(r.cigar.empty());
}

TEST(Wfa, EmptyTextForcesAllInsertions) {
  const auto pattern = encode("ACGT");
  const WfaResult r = wfa_align({}, pattern);
  ASSERT_TRUE(r.aligned);
  // One gap run of length 4: open+extend for the first base, extend after.
  EXPECT_EQ(r.score, 6 + 2 * 4);
  EXPECT_EQ(cigar_to_string(r.cigar), "4I");
  EXPECT_EQ(r.text_begin, 0U);
  EXPECT_EQ(r.text_end, 0U);
}

TEST(Wfa, SingleMismatch) {
  const auto text = encode("AAAACGTACGTAAAA");
  const auto pattern = encode("ACGTGCGT");  // one substitution
  const WfaResult r = wfa_align(text, pattern);
  ASSERT_TRUE(r.aligned);
  EXPECT_EQ(r.score, 4);
  EXPECT_EQ(r.edits, 1U);
  EXPECT_EQ(cigar_to_string(r.cigar), "4M1X3M");
}

TEST(Wfa, SingleDeletionFromPattern) {
  // Pattern lacks one text base: a 1-base deletion (text consumed).
  const auto text = encode("TTACGTACGTTT");
  const auto pattern = encode("ACGTCGT");
  const WfaResult r = wfa_align(text, pattern);
  ASSERT_TRUE(r.aligned);
  EXPECT_EQ(r.score, 6 + 2);
  EXPECT_EQ(r.edits, 1U);
  EXPECT_EQ(cigar_to_string(r.cigar), "4M1D3M");
  expect_cigar_consistent(r, text, pattern, WfaPenalties{});
}

TEST(Wfa, SingleInsertionIntoPattern) {
  const auto text = encode("TTACGTCGTTT");
  const auto pattern = encode("ACGTACGT");  // extra A vs text
  const WfaResult r = wfa_align(text, pattern);
  ASSERT_TRUE(r.aligned);
  EXPECT_EQ(r.score, 6 + 2);
  EXPECT_EQ(r.edits, 1U);
  EXPECT_EQ(cigar_to_string(r.cigar), "4M1I3M");
  expect_cigar_consistent(r, text, pattern, WfaPenalties{});
}

TEST(Wfa, AffineGapsPreferOneLongRun) {
  // A 2-base gap must cost open + 2*extend (10), beating the 5-mismatch
  // alternative (20) and two 1-base opens (16).
  const auto text = encode("TTCGGACGTAGGACGTACCTTT");
  const auto pattern = encode("ACGTAACGTA");  // GG deleted
  const WfaResult r = wfa_align(text, pattern);
  ASSERT_TRUE(r.aligned);
  EXPECT_EQ(r.score, 6 + 2 * 2);
  EXPECT_EQ(cigar_to_string(r.cigar), "5M2D5M");
}

TEST(Wfa, MatchesReferenceDpOnRandomMutatedReads) {
  util::Xoshiro256 rng(101);
  const WfaPenalties penalties;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Base> text(160 + rng.bounded(80));
    for (auto& b : text) b = static_cast<Base>(rng.bounded(4));
    const std::size_t len = 60 + rng.bounded(60);
    const std::size_t start = rng.bounded(text.size() - len);
    std::vector<Base> pattern(text.begin() + static_cast<long>(start),
                              text.begin() + static_cast<long>(start + len));
    // Substitutions and short indels at a few percent.
    const int errors = static_cast<int>(rng.bounded(5));
    for (int i = 0; i < errors && !pattern.empty(); ++i) {
      const std::size_t pos = rng.bounded(pattern.size());
      switch (rng.bounded(3)) {
        case 0:
          pattern[pos] = static_cast<Base>(rng.bounded(4));
          break;
        case 1:
          pattern.erase(pattern.begin() + static_cast<long>(pos));
          break;
        default:
          pattern.insert(pattern.begin() + static_cast<long>(pos),
                         static_cast<Base>(rng.bounded(4)));
          break;
      }
    }
    const WfaResult r = wfa_align(text, pattern);
    ASSERT_TRUE(r.aligned) << "trial " << trial;
    EXPECT_EQ(r.score, reference_penalty(text, pattern, penalties))
        << "trial " << trial;
    expect_cigar_consistent(r, text, pattern, penalties);
  }
}

TEST(Wfa, SubstitutionOnlyReadsMatchGlocalSwScore) {
  // With no indels both kernels settle on the same diagonal, so the WFA
  // CIGAR re-scored on the SW scale equals the glocal optimum — the
  // property the seed-extend seam relies on for cross-kernel ranking.
  util::Xoshiro256 rng(77);
  const SwScoring scoring;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Base> text(200);
    for (auto& b : text) b = static_cast<Base>(rng.bounded(4));
    const std::size_t len = 80 + rng.bounded(40);
    const std::size_t start = rng.bounded(text.size() - len);
    std::vector<Base> pattern(text.begin() + static_cast<long>(start),
                              text.begin() + static_cast<long>(start + len));
    for (int i = 0; i < 3; ++i) {
      pattern[rng.bounded(pattern.size())] = static_cast<Base>(rng.bounded(4));
    }
    const WfaResult r = wfa_align(text, pattern);
    ASSERT_TRUE(r.aligned);
    const GlocalResult g = glocal_align(text, pattern, scoring);
    EXPECT_EQ(cigar_sw_score(r.cigar, scoring), g.score) << "trial " << trial;
    EXPECT_EQ(r.edits, g.edits) << "trial " << trial;
  }
}

TEST(Wfa, ScoreCutoffGivesUpOnJunk) {
  util::Xoshiro256 rng(5);
  std::vector<Base> text(256), pattern(200);
  for (auto& b : text) b = static_cast<Base>(rng.bounded(4));
  for (auto& b : pattern) b = static_cast<Base>(rng.bounded(4));
  WfaOptions options;
  options.max_score = 20;  // unrelated sequences need far more
  const WfaResult r = wfa_align(text, pattern, options);
  EXPECT_FALSE(r.aligned);
  EXPECT_LE(r.stats.max_score, 20U);
  EXPECT_GT(r.stats.wavefronts, 0U);
}

TEST(Wfa, StatsTallyWork) {
  const auto text = encode("AAAACGTACGTAAAA");
  const auto pattern = encode("ACGTGCGT");
  const WfaResult r = wfa_align(text, pattern);
  EXPECT_GT(r.stats.wavefronts, 0U);
  EXPECT_GT(r.stats.cells, 0U);
  EXPECT_GT(r.stats.compare_bases, 0U);
  EXPECT_EQ(r.stats.cells_touched(), r.stats.cells + r.stats.compare_bases);
  EXPECT_EQ(r.stats.max_score, static_cast<std::uint32_t>(r.score));

  WfaStats sum;
  sum += r.stats;
  sum += r.stats;
  EXPECT_EQ(sum.cells, 2 * r.stats.cells);
  EXPECT_EQ(sum.max_score, r.stats.max_score);
}

}  // namespace
}  // namespace pim::align
