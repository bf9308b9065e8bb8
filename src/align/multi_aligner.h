// Chromosome-aware alignment: the two-stage pipeline over a MultiReference
// concatenation, with junction-artefact filtering and (chromosome, offset)
// hit coordinates.
#pragma once

#include <string>
#include <vector>

#include "src/align/engine.h"
#include "src/align/read_batch.h"
#include "src/genome/multi_reference.h"
#include "src/index/fm_index.h"

namespace pim::align {

struct ChromosomeHit {
  std::size_t chromosome = 0;
  std::uint64_t offset = 0;   ///< 0-based within the chromosome.
  std::uint32_t diffs = 0;
  Strand strand = Strand::kForward;
};

struct MultiAlignmentResult {
  AlignmentStage stage = AlignmentStage::kUnaligned;
  std::vector<ChromosomeHit> hits;
  std::size_t boundary_artifacts_dropped = 0;
  bool aligned() const { return stage != AlignmentStage::kUnaligned; }
};

class MultiAligner {
 public:
  /// `reference` and `index` must both outlive the aligner; the index must
  /// have been built over reference.concatenated().
  MultiAligner(const genome::MultiReference& reference,
               const index::FmIndex& index, AlignerOptions options = {});

  MultiAlignmentResult align(const std::vector<genome::Base>& read) const;

  /// Batch front-end: runs the engine scheduler over the concatenated-index
  /// pipeline, then converts hits to (chromosome, offset) coordinates with
  /// junction filtering. `stats`, when given, accumulates the per-stage
  /// engine counters (the per-read path has no way to report them).
  /// Note: the stage counters reflect the raw concatenation alignment;
  /// reads whose only hits are junction artefacts still report unaligned
  /// in the returned results.
  std::vector<MultiAlignmentResult> align_batch(
      const ReadBatch& batch, std::size_t num_threads = 1,
      EngineStats* stats = nullptr) const;

  const genome::MultiReference& reference() const { return *reference_; }

 private:
  MultiAlignmentResult convert(std::size_t read_length, AlignmentStage stage,
                               std::span<const AlignmentHit> hits) const;

  const genome::MultiReference* reference_;
  SoftwareEngine engine_;
};

}  // namespace pim::align
