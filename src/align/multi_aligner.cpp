#include "src/align/multi_aligner.h"

#include <algorithm>
#include <stdexcept>

#include "src/align/parallel_aligner.h"
#include "src/align/search_core.h"

namespace pim::align {

MultiAligner::MultiAligner(const genome::MultiReference& reference,
                           const index::FmIndex& index,
                           AlignerOptions options)
    : reference_(&reference), engine_(index, options) {
  if (index.reference_size() != reference.total_length()) {
    throw std::invalid_argument(
        "MultiAligner: index not built over this MultiReference");
  }
}

MultiAlignmentResult MultiAligner::convert(
    std::size_t read_length, AlignmentStage stage,
    std::span<const AlignmentHit> hits) const {
  MultiAlignmentResult result;

  // The matched reference span can stretch by the difference budget when
  // indels are allowed; be conservative at junctions.
  const std::uint64_t span =
      read_length + engine_.options().inexact.max_diffs;

  for (const auto& hit : hits) {
    // Clamp to the concatenation end: a hit whose worst-case span would run
    // off the end is fine as long as it stays within its chromosome.
    const std::uint64_t clamped = std::min<std::uint64_t>(
        span, reference_->total_length() - hit.position);
    if (reference_->spans_boundary(hit.position, clamped)) {
      ++result.boundary_artifacts_dropped;
      continue;
    }
    const auto loc = reference_->locate(hit.position);
    if (!loc) {
      ++result.boundary_artifacts_dropped;
      continue;
    }
    result.hits.push_back(
        ChromosomeHit{loc->chromosome, loc->offset, hit.diffs, hit.strand});
  }
  // The stage only counts if real (non-artefact) hits survive.
  if (!result.hits.empty()) {
    result.stage = stage;
  }
  return result;
}

MultiAlignmentResult MultiAligner::align(
    const std::vector<genome::Base>& read) const {
  detail::TwoStageScratch scratch;
  const AlignmentStage stage = detail::align_two_stage(
      engine_.index(), engine_.options(), read, scratch, nullptr);
  return convert(read.size(), stage, scratch.hits);
}

std::vector<MultiAlignmentResult> MultiAligner::align_batch(
    const ReadBatch& batch, std::size_t num_threads,
    EngineStats* stats) const {
  BatchResult raw;
  align_batch_parallel(engine_, batch, raw,
                       ParallelOptions{.num_threads = num_threads});

  std::vector<MultiAlignmentResult> results;
  results.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    results.push_back(convert(batch.read_length(i), raw.stage(i), raw.hits(i)));
  }
  if (stats != nullptr) stats->merge(raw.stats());
  return results;
}

}  // namespace pim::align
