// Seed-and-extend long-read alignment.
//
// Algorithm 2's z-bounded backtracking is the right tool for 100-bp short
// reads (<= 2 differences covers the paper's error rates) but cannot place
// the "thousands nt" reads the introduction also motivates: a 1-kb read at
// 0.3% divergence expects ~3 differences, and the backtracking cost grows
// exponentially in z. The classical answer — and this module — is
// seed-and-extend:
//   1. split the read into non-overlapping seeds (default 20 bp),
//   2. exact-search every seed with the FM-index (O(seed) each — still the
//      LFM machinery, still PIM-acceleratable),
//   3. vote candidate alignment diagonals from the seed hits,
//   4. verify the best diagonals with banded Smith-Waterman.
// The result is score-ranked candidate placements with full SW scores.
#pragma once

#include <cstdint>
#include <vector>

#include "src/align/smith_waterman.h"
#include "src/align/types.h"
#include "src/align/wfa.h"
#include "src/genome/packed_sequence.h"
#include "src/index/fm_index.h"

namespace pim::align {

/// Which kernel verifies a candidate diagonal (S44 extension-kernel seam).
/// kBandedSw does O(read * band) DP regardless of similarity; kWfa does
/// O(read * penalty) wavefront work — far less at sequencing divergence.
/// Both run on the host.
enum class ExtensionKernel : std::uint8_t { kBandedSw, kWfa };

const char* to_string(ExtensionKernel kernel);

struct SeedExtendOptions {
  std::uint32_t seed_length = 20;
  /// Seeds whose SA interval is wider than this are repeat junk and are
  /// skipped (their locate() cost would explode and their votes are noise).
  std::uint64_t max_seed_hits = 32;
  /// Minimum seed votes for a diagonal to reach extension verification.
  std::uint32_t min_votes = 2;
  /// Diagonals within this distance merge into one candidate (absorbs
  /// small indels between seeds).
  std::uint64_t diagonal_slack = 16;
  /// Candidates verified by the extension kernel, best-voted first.
  std::uint32_t max_candidates = 8;
  std::uint32_t band_width = 32;
  /// Hit ranking scale for both kernels (WFA placements are re-scored from
  /// their CIGAR via cigar_sw_score, so scores compare across kernels).
  SwScoring scoring;
  /// Extension kernel verifying candidate diagonals.
  ExtensionKernel kernel = ExtensionKernel::kBandedSw;
  /// WFA kernel configuration (penalties, score cutoff).
  WfaOptions wfa;
};

struct SeedChainHit {
  std::uint64_t ref_begin = 0;  ///< Alignment start in the reference.
  std::int32_t score = 0;       ///< SW-scale score (both kernels).
  std::uint32_t votes = 0;      ///< Seeds supporting this diagonal.
  std::uint32_t edits = 0;      ///< Mismatches + indel (+clipped) bases.
};

struct SeedExtendResult {
  std::vector<SeedChainHit> hits;  ///< Descending by score.
  std::uint32_t seeds_total = 0;
  std::uint32_t seeds_matched = 0;   ///< Seeds with usable exact hits.
  std::uint32_t candidates_tried = 0;
  /// Extension-kernel work across all candidates, in DP-cell equivalents
  /// (banded SW: cells computed; WFA: offsets updated + bases compared) —
  /// the axis the long_read_bench kernel sweep compares.
  std::uint64_t extension_cells = 0;
  /// WFA work counters (all-zero under kBandedSw).
  WfaStats wfa;
  bool found() const { return !hits.empty(); }
};

/// Align a (long) read by seeding + banded extension; candidates are
/// verified against index.reference().
SeedExtendResult seed_extend_align(const index::FmIndex& index,
                                   const std::vector<genome::Base>& read,
                                   const SeedExtendOptions& options = {});

/// Backend-generic core: any Searcher providing
///   ExactResult search(const std::vector<Base>&)
///   std::vector<std::uint64_t> locate(const index::SaInterval&)
/// can drive the seeding stage — the FM-index or the k-mer seed table.
/// Declared here, defined in seed_extend_core.h.
template <typename Searcher>
SeedExtendResult seed_extend_core(Searcher&& searcher,
                                  const genome::PackedSequence& reference,
                                  const std::vector<genome::Base>& read,
                                  const SeedExtendOptions& options);

}  // namespace pim::align

#include "src/align/seed_extend_core.h"  // IWYU pragma: keep
