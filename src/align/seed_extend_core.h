// Implementation of the backend-generic seed-and-extend core (see
// seed_extend.h for the interface contract). Kept in its own header so
// seed_extend.h stays readable; include seed_extend.h, not this file.
#pragma once

#include <algorithm>
#include <map>
#include <stdexcept>

#include "src/align/seed_extend.h"

namespace pim::align {

template <typename Searcher>
SeedExtendResult seed_extend_core(Searcher&& searcher,
                                  const genome::PackedSequence& reference,
                                  const std::vector<genome::Base>& read,
                                  const SeedExtendOptions& options) {
  if (options.seed_length == 0) {
    throw std::invalid_argument("seed_extend: seed length must be > 0");
  }
  SeedExtendResult result;
  if (read.size() < options.seed_length) return result;

  // 1-2. Seed and exact-search; each hit votes for the diagonal (the
  // implied reference position of the read's base 0).
  std::map<std::uint64_t, std::uint32_t> votes;
  for (std::uint64_t offset = 0; offset + options.seed_length <= read.size();
       offset += options.seed_length) {
    ++result.seeds_total;
    const std::vector<genome::Base> seed(
        read.begin() + static_cast<long>(offset),
        read.begin() + static_cast<long>(offset + options.seed_length));
    const ExactResult exact = searcher.search(seed);
    if (!exact.found() || exact.occurrence_count() > options.max_seed_hits) {
      continue;  // absent or repeat junk
    }
    ++result.seeds_matched;
    for (const auto pos : searcher.locate(exact.interval)) {
      if (pos < offset) continue;  // read would start before position 0
      votes[pos - offset] += 1;
    }
  }

  // 3. Merge nearby diagonals (small indels shift them) and rank by votes.
  struct Candidate {
    std::uint64_t diagonal = 0;
    std::uint32_t votes = 0;
  };
  std::vector<Candidate> candidates;
  for (const auto& [diagonal, count] : votes) {
    if (!candidates.empty() &&
        diagonal - candidates.back().diagonal <= options.diagonal_slack) {
      candidates.back().votes += count;
    } else {
      candidates.push_back(Candidate{diagonal, count});
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.votes > b.votes;
                   });

  // 4. Extension-kernel verification of the top candidates (S44 seam):
  // banded Smith-Waterman or gap-affine WFA, per options.kernel. Both
  // yield an SW-scale score, a precise alignment start, and an honest
  // edit count, so downstream ranking/SAM emission is kernel-agnostic.
  std::int64_t best_penalty = -1;  ///< Lowest WFA penalty aligned so far.
  for (const auto& cand : candidates) {
    if (cand.votes < options.min_votes) break;  // sorted: all below too
    if (result.candidates_tried >= options.max_candidates) break;
    ++result.candidates_tried;

    const std::uint64_t pad = options.band_width;
    const std::uint64_t window_begin =
        cand.diagonal > pad ? cand.diagonal - pad : 0;
    const std::uint64_t window_end = std::min<std::uint64_t>(
        reference.size(), cand.diagonal + read.size() + pad);
    if (window_begin >= window_end) continue;
    const std::vector<genome::Base> window =
        reference.slice(window_begin, window_end);

    if (options.kernel == ExtensionKernel::kBandedSw) {
      const SwResult sw = smith_waterman_banded(
          window, read,
          static_cast<std::int64_t>(cand.diagonal - window_begin),
          options.band_width, options.scoring, /*traceback=*/true);
      result.extension_cells += sw.cells_computed;
      if (sw.score <= 0) continue;
      // Local alignment may clip the read; clipped bases count as edits
      // and the implied read-start position backs out the leading clip.
      const std::uint64_t clipped =
          sw.read_begin + (read.size() - sw.read_end);
      const std::uint64_t start = window_begin + sw.ref_begin;
      const std::uint64_t ref_begin =
          start > sw.read_begin ? start - sw.read_begin : 0;
      result.hits.push_back(SeedChainHit{
          ref_begin, sw.score, cand.votes,
          cigar_edits(sw.cigar) + static_cast<std::uint32_t>(clipped)});
    } else {
      WfaOptions wfa_options = options.wfa;
      // Candidates are verified best-voted first, so once one aligns the
      // remaining (worse-voted) candidates only matter as secondary
      // placements: cap their score budget near the best penalty seen.
      // Spurious chains — e.g. a repeat paralog overlapping part of the
      // read — then give up after a few wavefronts instead of burning the
      // full divergence budget on a placement that could never rank.
      if (best_penalty >= 0) {
        const auto cap = static_cast<std::uint32_t>(best_penalty) +
                         wfa_options.score_cutoff_base;
        if (wfa_options.max_score == 0 || cap < wfa_options.max_score) {
          wfa_options.max_score = cap;
        }
      }
      const WfaResult wfa = wfa_align(window, read, wfa_options);
      result.wfa += wfa.stats;
      result.extension_cells += wfa.stats.cells_touched();
      if (!wfa.aligned) continue;
      if (best_penalty < 0 || wfa.score < best_penalty) {
        best_penalty = wfa.score;
      }
      const std::int32_t score = cigar_sw_score(wfa.cigar, options.scoring);
      if (score <= 0) continue;
      result.hits.push_back(SeedChainHit{window_begin + wfa.text_begin,
                                         score, cand.votes, wfa.edits});
    }
  }
  std::stable_sort(result.hits.begin(), result.hits.end(),
                   [](const SeedChainHit& a, const SeedChainHit& b) {
                     return a.score > b.score;
                   });
  return result;
}

}  // namespace pim::align
