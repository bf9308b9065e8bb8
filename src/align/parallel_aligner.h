// The one in-order scheduler over any AlignmentEngine.
//
// The FM-index is immutable after construction and engine align_range is
// const, so read ranges shard trivially across threads. Every chunked path
// — an engine's chunks fanned across worker threads, a serial engine's
// chunks run inline, ShardedEngine's one range per shard — is a list of
// RangeTasks handed to detail::run_in_order:
//
//   - a shared atomic cursor hands out tasks (whole read ranges, not single
//     reads: workers amortize dispatch and keep the packed arena's cache
//     locality), each aligned into a private BatchResult;
//   - completion is delivered IN INDEX ORDER as tasks finish (S39): the
//     worker that completes the lowest outstanding task drains every
//     consecutive finished task to the ChunkSink;
//   - a bounded start window (workers run at most 2x threads tasks ahead of
//     the next undelivered one) keeps undelivered results O(threads), not
//     O(batch) — the backpressure half of the streaming pipeline. The
//     window's result arenas are recycled, so a one-thread run (inline on
//     the calling thread, no thread started) reuses one arena per slot;
//   - the first engine or sink exception aborts the run and is rethrown
//     after every worker has joined.
//
// align_batch_parallel is a sink over AlignmentEngine::align_batch_chunked
// that appends each delivered chunk onto one BatchResult, so the output is
// positionally identical to a serial align_batch no matter the thread count
// or scheduling.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "src/align/engine.h"
#include "src/align/read_batch.h"
#include "src/obs/metrics.h"

namespace pim::align {

/// Align a batch through engine.align_batch_chunked; results are
/// positionally identical to engine.align_batch. out.stats() carries the
/// merged per-stage counters plus the scheduler's wall time.
void align_batch_parallel(const AlignmentEngine& engine,
                          const ReadBatch& batch, BatchResult& out,
                          ParallelOptions options = {});

namespace detail {

/// One unit of scheduled work: engine->align_range(batch, begin, end).
struct RangeTask {
  const AlignmentEngine* engine = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Called on the worker thread right after task `task` aligned (before its
/// delivery) with the task's result and its align_range wall time in ms.
using TaskDone = std::function<void(std::size_t task,
                                    const BatchResult& result,
                                    double align_ms)>;

/// Run `tasks` (contiguous, in read order) on up to `threads` workers and
/// deliver each result to `sink` in task order as a BatchResultChunk.
/// `threads` <= 1 runs inline on the calling thread. `metrics` (nullable)
/// receives the sched.* series. Rethrows the first engine or sink error;
/// no task at or after the failing one reaches the sink. Returns the merged
/// stats of the delivered chunks plus chunks, stall_ms, batches and wall_ms.
EngineStats run_in_order(const ReadBatch& batch,
                         std::span<const RangeTask> tasks, std::size_t threads,
                         const ChunkSink& sink, obs::MetricsRegistry* metrics,
                         const TaskDone& on_done = {});

}  // namespace detail
}  // namespace pim::align
