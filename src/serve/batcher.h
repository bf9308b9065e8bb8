// Dynamic batching (S41): coalesce queued requests into hardware-sized
// ReadBatches and demultiplex chunk completions back to per-request
// futures.
//
// Inference stacks keep accelerators saturated under irregular load by
// batching whatever is in the queue up to a size/age threshold; the same
// trick keeps a PimChipFleet / ShardedEngine busy here. The batcher thread
// loops:
//
//   RequestQueue::gather (fill up to max_batch_reads, linger max_linger)
//     -> deadline check at dequeue (expired requests fail fast, zero
//        engine cycles)
//     -> pack survivors into ONE ReadBatch (arena recycled across batches
//        via ReadBatchBuilder::reset, so steady state allocates nothing)
//     -> align through the S39 chunk seam (engine.align_batch_chunked:
//        thread-safe engines fan out across the scheduler's workers,
//        PimEngine runs inline, ShardedEngine one task per shard)
//     -> ChunkDemux maps in-order chunks back onto request extents: each
//        request's future resolves the moment ITS last read is delivered,
//        never waiting for later strangers in the same batch.
//
// Engine errors are routed to the affected requests' futures as exceptions
// (the batch's requests), not fatal to the service: the loop keeps serving.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "src/align/engine.h"
#include "src/align/parallel_aligner.h"
#include "src/serve/request_queue.h"

namespace pim::serve {

struct BatchPolicy {
  /// Coalescing ceiling: a dispatched batch carries at most this many reads
  /// (a single larger request still dispatches alone — requests are never
  /// split across batches). Size this to what keeps the backend saturated:
  /// ~chips x pipeline depth for a fleet, ~threads x chunk for software.
  std::size_t max_batch_reads = 4096;
  /// Age ceiling: dispatch as soon as the oldest queued request has waited
  /// this long, full batch or not — the latency half of the batching
  /// trade-off.
  std::chrono::microseconds max_linger{2000};
  /// Scheduler knobs handed to the engine's align_batch_chunked (threads
  /// for thread-safe engines, chunk size). The chunk size bounds demux
  /// granularity: smaller chunks resolve early requests in a batch sooner.
  align::ParallelOptions parallel;
};

class DynamicBatcher {
 public:
  /// Starts the batcher thread. `engine`, `queue`, and `counters` must
  /// outlive the batcher; the engine is driven from the batcher thread
  /// only, so non-thread-safe backends (PimEngine, ShardedEngine) serve
  /// safely.
  /// `tracer` (nullable) stamps the batcher-side phases — batch_seal,
  /// dispatch, first_chunk, complete/expire — plus the batch link on every
  /// traced request. `stall_probe` (optional, requires tracer) reads the
  /// backend's cumulative staging-stall nanoseconds (e.g.
  /// PimChipFleet::staging_stall_ns, safe to call mid-run); the stall
  /// accrued while a batch is on the engine is attributed pro-rata (by
  /// reads) to the batch's member requests as RequestTrace::stall_ms.
  DynamicBatcher(const align::AlignmentEngine& engine, RequestQueue& queue,
                 ServiceCounters* counters, ServeMetrics metrics,
                 BatchPolicy policy, obs::RequestTracer* tracer = nullptr,
                 std::function<double()> stall_probe = {});
  /// Joins the thread; RequestQueue::close() must have been called (or be
  /// called concurrently) or this blocks forever.
  ~DynamicBatcher();

  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  /// Wait for the loop to exit (queue closed and drained). Idempotent.
  void join();

  /// Merged engine counters across every dispatched batch (exact after
  /// join; a consistent mid-run view otherwise).
  align::EngineStats engine_stats() const;

  const BatchPolicy& policy() const { return policy_; }

 private:
  void run();
  void dispatch(std::vector<PendingRequest> pending,
                align::ReadBatchBuilder& builder);

  const align::AlignmentEngine* engine_;
  RequestQueue* queue_;
  ServiceCounters* counters_;
  ServeMetrics metrics_;
  BatchPolicy policy_;
  obs::RequestTracer* tracer_;
  std::function<double()> stall_probe_;

  mutable std::mutex stats_mu_;
  align::EngineStats engine_stats_;

  std::thread thread_;
  bool joined_ = false;
  std::mutex join_mu_;
};

}  // namespace pim::serve
