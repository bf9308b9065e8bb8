// Paired-end alignment: FR-orientation pairing with an insert-size model.
//
// Both mates run through the two-stage pipeline independently; pairing then
// searches the hit cross-product for a *proper pair* — opposite strands,
// forward mate leftmost, observed insert within mean +- k*sd — and scores
// candidates by total differences (ties: insert closest to the mean). When
// only one mate places uniquely, the pair still reports (the SAM flags say
// which mate is unmapped); this is where the insert constraint rescues
// repeat-ambiguous mates in practice.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/align/engine.h"
#include "src/align/read_batch.h"

namespace pim::align {

struct PairedOptions {
  AlignerOptions single;            ///< Per-mate alignment options.
  std::uint32_t insert_mean = 300;
  std::uint32_t insert_sd = 30;
  double max_insert_deviations = 4.0;
};

enum class PairClass : std::uint8_t {
  kProperPair,   ///< Both aligned, FR orientation, insert within bounds.
  kDiscordant,   ///< Both aligned but no orientation/insert-consistent pair.
  kOneMate,      ///< Exactly one mate aligned.
  kNeither,
};

struct ProperPair {
  AlignmentHit first;
  AlignmentHit second;
  std::uint64_t observed_insert = 0;
  std::uint32_t total_diffs = 0;
};

struct PairedResult {
  PairClass cls = PairClass::kNeither;
  std::optional<ProperPair> pair;  ///< Set iff cls == kProperPair.
  AlignmentResult mate1;
  AlignmentResult mate2;
};

class PairedAligner {
 public:
  PairedAligner(const index::FmIndex& index, PairedOptions options = {});

  /// mates1[i] pairs with mates2[i] (the batches must be the same size).
  /// Both mate batches run through the engine scheduler, then pairing
  /// classifies each index. `stats`, when given, accumulates the per-stage
  /// engine counters over BOTH mates.
  std::vector<PairedResult> align_pairs(const ReadBatch& mates1,
                                        const ReadBatch& mates2,
                                        std::size_t num_threads = 1,
                                        EngineStats* stats = nullptr) const;

  const PairedOptions& options() const { return options_; }

 private:
  std::optional<ProperPair> best_proper_pair(
      const AlignmentResult& r1, const AlignmentResult& r2,
      std::size_t len1, std::size_t len2) const;
  void classify(PairedResult& result, std::size_t len1,
                std::size_t len2) const;

  SoftwareEngine engine_;
  PairedOptions options_;
};

}  // namespace pim::align
