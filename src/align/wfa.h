// Gap-affine wavefront alignment (WFA) — the long-read extension kernel
// (S44, after Marco-Sola et al.). It runs on the host; the simulated PIM
// platform runs only the paper's Algorithms 1-2.
//
// Classic DP verification (banded Smith-Waterman) does O(n*band) work per
// candidate window no matter how similar read and window are. WFA instead
// expands *wavefronts*: for each penalty score s it stores, per diagonal,
// the furthest-reaching (text, pattern) point attainable at cost s, and
// advances matches for free. Work is O(n*s) where s is the optimal penalty
// — tiny at sequencing divergence.
//
// Alignment model: *semi-global* — the whole pattern (read) is consumed,
// the text (reference window) is free at both ends. That matches
// glocal_align's contract (no soft-clipping of the read), so the CIGAR
// spans the full read and `edits` is the alignment's true edit count.
// Scores are penalties (match = 0, mismatch/gap > 0); lower is better,
// 0 means an exact substring match.
#pragma once

#include <cstdint>
#include <vector>

#include "src/align/smith_waterman.h"
#include "src/genome/alphabet.h"

namespace pim::align {

/// Gap-affine penalties (match is free — the property that lets wavefronts
/// extend matches without expanding score). A gap of length L costs
/// gap_open + L * gap_extend.
struct WfaPenalties {
  std::uint32_t mismatch = 4;
  std::uint32_t gap_open = 6;
  std::uint32_t gap_extend = 2;
};

struct WfaOptions {
  WfaPenalties penalties;
  /// Hard score cutoff: give up (unaligned) once the wavefront score
  /// exceeds this. 0 = auto: score_cutoff_base + pattern length *
  /// score_cutoff_per_base, which bounds the work on junk candidates the
  /// way the band bounds banded SW.
  std::uint32_t max_score = 0;
  std::uint32_t score_cutoff_base = 64;
  double score_cutoff_per_base = 0.25;
};

/// Work counters of one wfa_align call.
struct WfaStats {
  std::uint64_t wavefronts = 0;     ///< Wavefront score steps expanded.
  std::uint64_t cells = 0;          ///< Offset slots computed (M+I+D).
  std::uint64_t compare_bases = 0;  ///< Bases compared while extending.
  std::uint32_t max_score = 0;      ///< Highest score reached (or cutoff).

  /// DP-cell-equivalent work, comparable with SwResult::cells_computed:
  /// offset updates plus bulk-compared bases.
  std::uint64_t cells_touched() const { return cells + compare_bases; }
  WfaStats& operator+=(const WfaStats& other);
};

struct WfaResult {
  bool aligned = false;        ///< Reached pattern end within the cutoff.
  std::int32_t score = 0;      ///< Penalty score (0 = exact match).
  /// Text (window) span consumed, half-open; the free leading/trailing
  /// text is outside it. Valid only when aligned.
  std::uint64_t text_begin = 0, text_end = 0;
  std::vector<CigarEntry> cigar;  ///< Whole pattern.
  std::uint32_t edits = 0;        ///< Mismatches + inserted/deleted bases.
  WfaStats stats;
};

/// Align `pattern` (fully) against `text` (free at both ends) under
/// gap-affine penalties. An empty pattern aligns trivially with score 0;
/// an empty text forces an all-insertion alignment (or cutoff).
WfaResult wfa_align(const std::vector<genome::Base>& text,
                    const std::vector<genome::Base>& pattern,
                    const WfaOptions& options = {});

/// Score a (full-pattern) CIGAR under classic SW scoring — the bridge that
/// puts WFA and Smith-Waterman placements on one ranking scale
/// (seed_extend ranks hits by it regardless of kernel).
std::int32_t cigar_sw_score(const std::vector<CigarEntry>& cigar,
                            const SwScoring& scoring);

/// Edit count of a CIGAR: mismatches plus inserted and deleted bases.
std::uint32_t cigar_edits(const std::vector<CigarEntry>& cigar);

}  // namespace pim::align
