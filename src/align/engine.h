// Unified batch alignment engine (S37).
//
// One interface — align_batch(const ReadBatch&, BatchResult&) — across every
// backend the repo grew one-off drivers for: the two-stage software FM
// pipeline (SoftwareEngine), the simulated SOT-MRAM platform
// (pim::hw::PimEngine, defined in src/pim to respect library layering), and
// seed-and-extend long-read alignment (SeedExtendEngine). Front-ends
// (parallel scheduler, PairedAligner, SamWriter, examples, benches)
// program against AlignmentEngine, so swapping the software path
// for the PIM model — or a future sharded/async backend — is a one-line
// change. SoftwareEngine and PimEngine run the same two-stage function
// (detail::align_two_stage) over different search backends, and the
// software/PIM bit-identical-results invariant is asserted at exactly one
// seam (tests/test_engine.cpp).
//
// BatchResult is arena-backed like ReadBatch: all hits of a batch live in
// one contiguous vector with per-read extents, so the engine path performs
// O(1) heap allocations per batch. Its EngineStats (types.h) carries the
// per-stage counters.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/align/read_batch.h"
#include "src/align/seed_extend.h"
#include "src/align/types.h"
#include "src/index/fm_index.h"

namespace pim::obs {
class MetricsRegistry;
}

namespace pim::align {

/// Arena-backed batch results: stages + one contiguous hits vector with
/// per-read extents. Materialize a per-read AlignmentResult with result(i)
/// only at I/O boundaries (serving responses, tests).
class BatchResult {
 public:
  BatchResult() { hit_begin_.push_back(0); }

  void clear();
  void reserve(std::size_t reads, std::size_t expected_hits);

  /// Append the next read's outcome (reads arrive in order). Updates the
  /// stage/hit counters in stats().
  void add_read(AlignmentStage stage, std::span<const AlignmentHit> hits);
  /// Stitch a chunk produced by a parallel worker onto this result.
  void append(const BatchResult& chunk);

  std::size_t size() const { return stages_.size(); }
  AlignmentStage stage(std::size_t i) const { return stages_[i]; }
  bool aligned(std::size_t i) const {
    return stages_[i] != AlignmentStage::kUnaligned;
  }
  std::span<const AlignmentHit> hits(std::size_t i) const {
    return std::span<const AlignmentHit>(hits_.data() + hit_begin_[i],
                                         hit_begin_[i + 1] - hit_begin_[i]);
  }
  /// Best (fewest-diff, leftmost) hit of read i, like AlignmentResult::best.
  std::optional<AlignmentHit> best(std::size_t i) const;

  /// Materialize read i as a standalone per-read value (copies the hits).
  AlignmentResult result(std::size_t i) const;
  std::vector<AlignmentResult> to_results() const;

  EngineStats& stats() { return stats_; }
  const EngineStats& stats() const { return stats_; }

  std::size_t memory_bytes() const;

 private:
  std::vector<AlignmentStage> stages_;
  std::vector<std::uint64_t> hit_begin_;  ///< size()+1 extents into hits_.
  std::vector<AlignmentHit> hits_;
  EngineStats stats_;
};

/// A completed slice of a batch's results, handed to a ChunkSink as soon as
/// the chunk (and every chunk before it) finishes. `result` holds exactly
/// the reads [begin, end) of `batch`, so read i of the batch is
/// result->result(i - begin). Valid only for the duration of the sink call —
/// the producer recycles the arena afterwards.
struct BatchResultChunk {
  const ReadBatch* batch = nullptr;
  std::size_t begin = 0;  ///< First read of the chunk (batch index).
  std::size_t end = 0;    ///< One past the last read.
  const BatchResult* result = nullptr;
  /// Global index of read `begin` across a whole stream of batches (equals
  /// `begin` for standalone batches); SamWriter uses it to backfill
  /// "read<i>" names consistently with a non-streaming write_batch.
  std::size_t base_index = 0;

  std::size_t size() const { return end - begin; }
};

/// Called with completed chunks in read-index order. Sinks are invoked from
/// at most one thread at a time (calls are serialized by the producer), but
/// not necessarily from the thread that started the alignment.
using ChunkSink = std::function<void(const BatchResultChunk&)>;

/// Scheduling knobs of AlignmentEngine::align_batch_chunked.
struct ParallelOptions {
  std::size_t num_threads = 0;  ///< 0 = hardware concurrency.
  /// Reads per scheduling unit; 0 picks min(reads, 1024) on one thread, and
  /// otherwise a size that gives each thread ~8 chunks (load balance)
  /// without dropping below 16 reads (dispatch amortization).
  std::size_t chunk_size = 0;
  /// Observability sink (S40). When set, the scheduler publishes per-chunk
  /// align latency ("sched.chunk_align_ms"), start-window occupancy at
  /// chunk grab ("sched.window_occupancy"), per-worker busy/idle split
  /// ("sched.worker_busy_ms"/"sched.worker_idle_ms"), and delivery/wait
  /// counters ("sched.chunks", "sched.window_wait_us"). When null (the
  /// default) the scheduler takes no extra clock reads on the non-blocking
  /// path.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The one engine interface. Implementations align half-open read ranges of
/// a batch; align_batch adds timing. align_range must append exactly
/// (end - begin) reads to `out` in read order. Engines whose thread_safe()
/// returns true guarantee align_range is safe to call concurrently from
/// multiple threads (on disjoint output chunks) — align_batch_chunked
/// checks this before fanning out.
class AlignmentEngine {
 public:
  virtual ~AlignmentEngine() = default;

  virtual std::string_view name() const = 0;
  virtual bool thread_safe() const { return false; }
  virtual void align_range(const ReadBatch& batch, std::size_t begin,
                           std::size_t end, BatchResult& out) const = 0;

  /// Align the whole batch serially into `out` (cleared first), recording
  /// wall time and arena footprint in out.stats().
  void align_batch(const ReadBatch& batch, BatchResult& out) const;

  /// Streaming alternative to align_batch: align the batch in chunks and
  /// hand each completed chunk — in index order, serialized — to `sink`
  /// instead of materializing one whole-batch BatchResult, so memory stays
  /// O(threads x chunk) rather than O(batch). The default fans the chunks
  /// across options.num_threads workers when thread_safe(), and runs them
  /// inline on the calling thread otherwise (detail::run_in_order in
  /// parallel_aligner.h is the one scheduler). ShardedEngine overrides it
  /// with one chunk per shard. Engine or sink exceptions abort the run and
  /// rethrow here. Returns the merged stats of the run.
  virtual EngineStats align_batch_chunked(
      const ReadBatch& batch, const ChunkSink& sink,
      const ParallelOptions& options = {}) const;
};

/// The two-stage FM pipeline (Algorithms 1 and 2; detail::align_two_stage
/// in search_core.h) over the software FM-index. Stateless between calls
/// and const over an immutable index, hence thread-safe.
class SoftwareEngine final : public AlignmentEngine {
 public:
  explicit SoftwareEngine(const index::FmIndex& index,
                          AlignerOptions options = {})
      : index_(&index), options_(options) {}

  std::string_view name() const override { return "software-fm"; }
  bool thread_safe() const override { return true; }
  void align_range(const ReadBatch& batch, std::size_t begin, std::size_t end,
                   BatchResult& out) const override;

  const AlignerOptions& options() const { return options_; }
  const index::FmIndex& index() const { return *index_; }

 private:
  const index::FmIndex* index_;
  AlignerOptions options_;
};

/// Seed-and-extend long-read alignment as an engine. Hits carry the
/// extension kernel's precise alignment start and honest edit count
/// (AlignmentHit.diffs), so SAM NM tags and best() ranking reflect the
/// alignment rather than reporting 0. Both orientations are verified and
/// all placements kept, so a spurious forward seed chain cannot mask the
/// true reverse-strand placement. Reads whose best placement is edit-free
/// count as stage one, the rest as stage two, mirroring the short-read
/// pipeline's exact/inexact split.
class SeedExtendEngine final : public AlignmentEngine {
 public:
  explicit SeedExtendEngine(const index::FmIndex& index,
                            SeedExtendOptions options = {})
      : index_(&index), options_(options) {}

  std::string_view name() const override { return "seed-extend"; }
  bool thread_safe() const override { return true; }
  void align_range(const ReadBatch& batch, std::size_t begin, std::size_t end,
                   BatchResult& out) const override;

  const SeedExtendOptions& options() const { return options_; }

 private:
  const index::FmIndex* index_;
  SeedExtendOptions options_;
};

/// `count` independent SeedExtendEngine instances over one index — the
/// shard set ShardedEngine consumes (engines are stateless, so shards
/// differ only in identity).
std::vector<std::unique_ptr<AlignmentEngine>> make_seed_extend_shards(
    const index::FmIndex& index, std::size_t count,
    const SeedExtendOptions& options = {});

}  // namespace pim::align
