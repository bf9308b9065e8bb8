#include "src/align/engine.h"

#include <algorithm>
#include <chrono>

#include "src/align/search_core.h"

namespace pim::align {

void EngineStats::merge(const EngineStats& other) {
  reads_total += other.reads_total;
  reads_exact += other.reads_exact;
  reads_inexact += other.reads_inexact;
  reads_unaligned += other.reads_unaligned;
  hits_total += other.hits_total;
  exact_searches += other.exact_searches;
  inexact_searches += other.inexact_searches;
  exact_verified += other.exact_verified;
  batches += other.batches;
  wall_ms += other.wall_ms;
  result_bytes += other.result_bytes;
  chunks += other.chunks;
  stall_ms += other.stall_ms;
}

void BatchResult::clear() {
  stages_.clear();
  hit_begin_.assign(1, 0);
  hits_.clear();
  stats_ = EngineStats{};
}

void BatchResult::reserve(std::size_t reads, std::size_t expected_hits) {
  stages_.reserve(reads);
  hit_begin_.reserve(reads + 1);
  hits_.reserve(expected_hits);
}

namespace {

bool better_hit(const AlignmentHit& a, const AlignmentHit& b) {
  if (a.diffs != b.diffs) return a.diffs < b.diffs;
  return a.position < b.position;
}

}  // namespace

std::optional<AlignmentHit> AlignmentResult::best() const {
  if (hits.empty()) return std::nullopt;
  return *std::min_element(hits.begin(), hits.end(), better_hit);
}

void BatchResult::add_read(AlignmentStage stage,
                           std::span<const AlignmentHit> hits) {
  stages_.push_back(stage);
  hits_.insert(hits_.end(), hits.begin(), hits.end());
  hit_begin_.push_back(hits_.size());
  ++stats_.reads_total;
  switch (stage) {
    case AlignmentStage::kExact: ++stats_.reads_exact; break;
    case AlignmentStage::kInexact: ++stats_.reads_inexact; break;
    case AlignmentStage::kUnaligned: ++stats_.reads_unaligned; break;
  }
  stats_.hits_total += hits.size();
}

void BatchResult::append(const BatchResult& chunk) {
  const std::uint64_t base = hits_.size();
  stages_.insert(stages_.end(), chunk.stages_.begin(), chunk.stages_.end());
  hits_.insert(hits_.end(), chunk.hits_.begin(), chunk.hits_.end());
  for (std::size_t i = 1; i < chunk.hit_begin_.size(); ++i) {
    hit_begin_.push_back(base + chunk.hit_begin_[i]);
  }
  stats_.merge(chunk.stats_);
}

std::optional<AlignmentHit> BatchResult::best(std::size_t i) const {
  const auto h = hits(i);
  if (h.empty()) return std::nullopt;
  return *std::min_element(h.begin(), h.end(), better_hit);
}

AlignmentResult BatchResult::result(std::size_t i) const {
  AlignmentResult r;
  r.stage = stages_[i];
  const auto h = hits(i);
  r.hits.assign(h.begin(), h.end());
  return r;
}

std::vector<AlignmentResult> BatchResult::to_results() const {
  std::vector<AlignmentResult> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(result(i));
  return out;
}

std::size_t BatchResult::memory_bytes() const {
  return stages_.capacity() * sizeof(AlignmentStage) +
         hit_begin_.capacity() * sizeof(std::uint64_t) +
         hits_.capacity() * sizeof(AlignmentHit);
}

void AlignmentEngine::align_batch(const ReadBatch& batch,
                                  BatchResult& out) const {
  const auto t0 = std::chrono::steady_clock::now();
  out.clear();
  // Most short reads place with one or two hits; reserving 2/read keeps the
  // hits arena to a couple of growth steps on skewed batches.
  out.reserve(batch.size(), batch.size() * 2);
  align_range(batch, 0, batch.size(), out);
  const auto t1 = std::chrono::steady_clock::now();
  out.stats().batches = 1;
  out.stats().wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.stats().result_bytes = out.memory_bytes();
}

void SoftwareEngine::align_range(const ReadBatch& batch, std::size_t begin,
                                 std::size_t end, BatchResult& out) const {
  detail::TwoStageScratch scratch;
  for (std::size_t i = begin; i < end; ++i) {
    batch.read(i).unpack_into(scratch.read);
    const AlignmentStage stage = detail::align_two_stage(
        *index_, options_, scratch.read, scratch, &out.stats());
    out.add_read(stage, scratch.hits);
  }
}

void SeedExtendEngine::align_range(const ReadBatch& batch, std::size_t begin,
                                   std::size_t end, BatchResult& out) const {
  detail::TwoStageScratch scratch;
  for (std::size_t i = begin; i < end; ++i) {
    batch.read(i).unpack_into(scratch.read);
    scratch.hits.clear();

    // Forward strand, then (always with both_strands, else only on a miss)
    // the reverse complement. Kernel output is carried into the hits —
    // AlignmentHit.diffs is the alignment's edit count, so SAM NM tags and
    // best() ranking are honest — and a spurious forward seed chain cannot
    // mask a better reverse-strand placement.
    const SeedExtendResult fwd =
        seed_extend_align(*index_, scratch.read, options_);
    ++out.stats().inexact_searches;
    for (const auto& hit : fwd.hits) {
      scratch.hits.push_back(
          AlignmentHit{hit.ref_begin, hit.edits, Strand::kForward});
    }
    if (options_.both_strands || !fwd.found()) {
      genome::reverse_complement_into(scratch.read, scratch.rc);
      const SeedExtendResult rev =
          seed_extend_align(*index_, scratch.rc, options_);
      ++out.stats().inexact_searches;
      for (const auto& hit : rev.hits) {
        scratch.hits.push_back(AlignmentHit{hit.ref_begin, hit.edits,
                                            Strand::kReverseComplement});
      }
    }

    std::sort(scratch.hits.begin(), scratch.hits.end(),
              [](const AlignmentHit& a, const AlignmentHit& b) {
                if (a.position != b.position) return a.position < b.position;
                return a.diffs < b.diffs;
              });
    AlignmentStage stage = AlignmentStage::kUnaligned;
    if (!scratch.hits.empty()) {
      const auto min_diffs =
          std::min_element(scratch.hits.begin(), scratch.hits.end(),
                           [](const AlignmentHit& a, const AlignmentHit& b) {
                             return a.diffs < b.diffs;
                           })
              ->diffs;
      stage = min_diffs == 0 ? AlignmentStage::kExact
                             : AlignmentStage::kInexact;
    }
    out.add_read(stage, scratch.hits);
  }
}

std::vector<std::unique_ptr<AlignmentEngine>> make_seed_extend_shards(
    const index::FmIndex& index, std::size_t count,
    const SeedExtendOptions& options) {
  std::vector<std::unique_ptr<AlignmentEngine>> shards;
  shards.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    shards.push_back(
        std::make_unique<SeedExtendEngine>(index, options));
  }
  return shards;
}

}  // namespace pim::align
