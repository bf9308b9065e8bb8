// Chunked parallel scheduling over any AlignmentEngine.
//
// The FM-index is immutable after construction and engine align_range is
// const, so read ranges shard trivially across threads. A shared atomic
// cursor hands out fixed-size *chunks* of the batch (not single read
// indices): workers amortize dispatch over a whole range, keep the packed
// arena's cache locality, and accumulate results + EngineStats into a
// private per-chunk BatchResult.
//
// Completion is delivered IN INDEX ORDER as chunks finish (S39): the worker
// that completes the lowest outstanding chunk drains every consecutive
// finished chunk to the ChunkSink, then frees the chunk arenas. A bounded
// start window (workers may run at most ~2x threads chunks ahead of the
// next undelivered one) keeps undelivered results O(threads), not O(batch)
// — the backpressure half of the streaming pipeline. align_batch_parallel
// is now a thin sink that appends each delivered chunk onto one BatchResult,
// so the output is positionally identical to a serial align_batch no matter
// the thread count or scheduling.
//
// Engines that are not thread-safe (PimEngine: shared sub-array stats) run
// the whole batch serially through the same entry points — callers don't
// branch on backend. ShardedEngine's own align_batch_chunked override does
// its per-shard fan-out instead.
#pragma once

#include <cstddef>

#include "src/align/engine.h"
#include "src/align/read_batch.h"
#include "src/obs/metrics.h"

namespace pim::align {

struct ParallelOptions {
  std::size_t num_threads = 0;  ///< 0 = hardware concurrency.
  /// Reads per scheduling unit; 0 picks a size that gives each thread ~8
  /// chunks (load balance) without dropping below 16 reads (dispatch
  /// amortization).
  std::size_t chunk_size = 0;
  /// Observability sink (S40). When set, the chunked scheduler publishes
  /// per-chunk align latency ("sched.chunk_align_ms"), start-window
  /// occupancy at chunk grab ("sched.window_occupancy"), per-worker
  /// busy/idle split ("sched.worker_busy_ms"/"sched.worker_idle_ms"), and
  /// delivery/wait counters ("sched.chunks", "sched.window_wait_us").
  /// When null (the default) the scheduler takes no extra clock reads on
  /// the non-blocking path.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Align a batch across threads; results are positionally identical to
/// engine.align_batch. out.stats() carries the merged per-stage counters
/// plus the scheduler's wall time.
void align_batch_parallel(const AlignmentEngine& engine,
                          const ReadBatch& batch, BatchResult& out,
                          ParallelOptions options = {});

/// Streaming form: align chunks across threads and hand each completed
/// chunk — in index order, serialized — to `sink` instead of materializing
/// a whole-batch result. Engines that are not thread-safe route through
/// their (virtual) align_batch_chunked. Sink or engine exceptions abort the
/// run and rethrow here. Returns the merged stats of the run.
EngineStats align_batch_parallel_chunked(const AlignmentEngine& engine,
                                         const ReadBatch& batch,
                                         const ChunkSink& sink,
                                         ParallelOptions options = {},
                                         bool best_hit_only = false);

}  // namespace pim::align
