#include "src/align/paired.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/align/parallel_aligner.h"
#include "src/align/search_core.h"

namespace pim::align {

PairedAligner::PairedAligner(const index::FmIndex& index,
                             PairedOptions options)
    : engine_(index, options.single), options_(options) {}

std::optional<ProperPair> PairedAligner::best_proper_pair(
    const AlignmentResult& r1, const AlignmentResult& r2, std::size_t len1,
    std::size_t len2) const {
  const double lo = static_cast<double>(options_.insert_mean) -
                    options_.max_insert_deviations * options_.insert_sd;
  const double hi = static_cast<double>(options_.insert_mean) +
                    options_.max_insert_deviations * options_.insert_sd;

  std::optional<ProperPair> best;
  double best_insert_error = std::numeric_limits<double>::infinity();
  for (const auto& h1 : r1.hits) {
    for (const auto& h2 : r2.hits) {
      // FR orientation: mates on opposite strands, the forward mate
      // leftmost on the genome.
      if (h1.strand == h2.strand) continue;
      const AlignmentHit& fwd = h1.strand == Strand::kForward ? h1 : h2;
      const AlignmentHit& rev = h1.strand == Strand::kForward ? h2 : h1;
      const std::size_t rev_len = (&rev == &h1) ? len1 : len2;
      if (rev.position + rev_len <= fwd.position) continue;  // wrong order
      const std::uint64_t insert = rev.position + rev_len - fwd.position;
      const double ins = static_cast<double>(insert);
      if (ins < lo || ins > hi) continue;
      const std::uint32_t diffs = h1.diffs + h2.diffs;
      const double insert_error =
          std::fabs(ins - static_cast<double>(options_.insert_mean));
      const bool better =
          !best || diffs < best->total_diffs ||
          (diffs == best->total_diffs && insert_error < best_insert_error);
      if (better) {
        best = ProperPair{h1, h2, insert, diffs};
        best_insert_error = insert_error;
      }
    }
  }
  return best;
}

void PairedAligner::classify(PairedResult& result, std::size_t len1,
                             std::size_t len2) const {
  const bool a1 = result.mate1.aligned();
  const bool a2 = result.mate2.aligned();
  if (a1 && a2) {
    result.pair = best_proper_pair(result.mate1, result.mate2, len1, len2);
    result.cls =
        result.pair ? PairClass::kProperPair : PairClass::kDiscordant;
  } else if (a1 || a2) {
    result.cls = PairClass::kOneMate;
  } else {
    result.cls = PairClass::kNeither;
  }
}

PairedResult PairedAligner::align_pair(
    const std::vector<genome::Base>& read1,
    const std::vector<genome::Base>& read2) const {
  PairedResult result;
  detail::TwoStageScratch scratch;
  result.mate1.stage = detail::align_two_stage(
      engine_.index(), engine_.options(), read1, scratch, nullptr);
  result.mate1.hits = scratch.hits;
  result.mate2.stage = detail::align_two_stage(
      engine_.index(), engine_.options(), read2, scratch, nullptr);
  result.mate2.hits = scratch.hits;
  classify(result, read1.size(), read2.size());
  return result;
}

std::vector<PairedResult> PairedAligner::align_pairs(
    const ReadBatch& mates1, const ReadBatch& mates2, std::size_t num_threads,
    EngineStats* stats) const {
  if (mates1.size() != mates2.size()) {
    throw std::invalid_argument("align_pairs: mate batches differ in size");
  }
  BatchResult b1, b2;
  align_batch_parallel(engine_, mates1, b1,
                       ParallelOptions{.num_threads = num_threads});
  align_batch_parallel(engine_, mates2, b2,
                       ParallelOptions{.num_threads = num_threads});

  std::vector<PairedResult> results;
  results.reserve(mates1.size());
  for (std::size_t i = 0; i < mates1.size(); ++i) {
    PairedResult result;
    result.mate1 = b1.result(i);
    result.mate2 = b2.result(i);
    classify(result, mates1.read_length(i), mates2.read_length(i));
    results.push_back(std::move(result));
  }
  if (stats != nullptr) {
    stats->merge(b1.stats());
    stats->merge(b2.stats());
  }
  return results;
}

}  // namespace pim::align
