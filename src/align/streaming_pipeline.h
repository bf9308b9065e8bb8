// Bounded-memory streaming end-to-end pipeline (S39): double-buffered FASTQ
// ingest -> chunked alignment -> per-chunk emission.
//
// The paper's pipeline (Fig. 7) never holds the whole workload in flight:
// reads stream through the 5-stage sub-array pipeline at parallelism Pd.
// The host pipeline used to materialize everything three times — read_fastq
// loaded every record, the engine held the full BatchResult, and
// SamWriter::write_batch ran only after the last read finished.
// StreamingPipeline replaces all three with one seam:
//
//   producer thread --(<=2 ReadBatch generations)--> consumer
//   FastqStreamReader -> ReadBatchBuilder            engine.align_batch_chunked
//   (arena recycled per generation via               -> ChunkSink (in read order)
//    ReadBatchBuilder::reset)
//
// The producer packs generation g+1 while the engine aligns generation g
// (double buffering: at most two batch arenas exist, recycled through a
// free list, so steady state allocates nothing per generation). Completed
// chunks are delivered to the sink in global read order — within a batch by
// the one in-order scheduler (parallel_aligner.h), across batches because
// generations are consumed
// sequentially — so streaming SAM output is byte-identical to a
// materialize-everything write_batch run. Peak memory is O(2 batches +
// in-flight chunks) instead of O(dataset).
//
// Backpressure: the producer blocks when both batch slots are in use; the
// chunked scheduler bounds completed-but-undelivered chunks to O(threads).
// Errors on either side (malformed FASTQ, engine or sink failure) abort the
// opposite side and rethrow from run(); output emitted before the error
// remains written.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/align/engine.h"
#include "src/align/parallel_aligner.h"
#include "src/genome/fastq.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace pim::align {

class SamWriter;

struct StreamingOptions {
  /// Reads per generation batch. Bigger amortizes scheduling; smaller
  /// bounds memory tighter and smooths the ingest/align overlap.
  std::size_t batch_reads = 32768;
  /// Scheduler knobs handed to the engine's align_batch_chunked (threads
  /// for thread-safe engines, chunk size).
  ParallelOptions parallel;
  /// Observability sink (S40). When set, run() publishes the stage-resolved
  /// series the paper's Fig. 8-10 accounting needs live instead of post
  /// hoc: "stream.reads"/"stream.batches"/"stream.chunks" counters,
  /// producer fill time ("stream.producer_fill_ms") and arena-wait stall
  /// ("stream.producer_wait_us"), consumer align time
  /// ("stream.consumer_align_ms") and ingest-wait stall
  /// ("stream.consumer_wait_us"), and per-chunk delivery latency from
  /// generation align start ("stream.chunk_latency_ms"). Propagated to
  /// ParallelOptions::metrics when that is unset, so the scheduler's
  /// worker-level series land in the same registry. Null = zero overhead.
  obs::MetricsRegistry* metrics = nullptr;
  /// Stage trace sink (S40): generation fill/align spans land here with
  /// nesting intact. Null = no tracing.
  obs::TraceLog* trace = nullptr;
};

/// Aggregate accounting of one streaming run.
struct StreamingStats {
  EngineStats engine;          ///< Merged engine counters across generations.
  std::uint64_t reads = 0;     ///< Reads streamed end to end.
  std::uint64_t batches = 0;   ///< Generations consumed.
  std::uint64_t chunks = 0;    ///< Chunks delivered to the sink.
  double wall_ms = 0.0;        ///< End-to-end run() wall time.
  /// Time the consumer spent stalled waiting for the producer — near zero
  /// when ingest fully overlaps alignment.
  double ingest_wait_ms = 0.0;
  /// High-water mark of live batch-arena bytes (at most two generations).
  std::size_t peak_batch_bytes = 0;
};

class StreamingPipeline {
 public:
  /// `engine` must outlive the pipeline. Each generation streams through
  /// the engine's (virtual) align_batch_chunked.
  explicit StreamingPipeline(const AlignmentEngine& engine,
                             StreamingOptions options = {});

  /// Drive reader -> double-buffered batches -> engine -> sink until end of
  /// stream. Chunks arrive in global read order with base_index set to the
  /// global index of the chunk's first read. Rethrows producer (FASTQ
  /// parse), engine, and sink errors.
  StreamingStats run(genome::FastqStreamReader& reader,
                     const ChunkSink& sink) const;

  /// Convenience: stream straight into a SamWriter (one write_chunk per
  /// delivered chunk). The caller writes the header first.
  StreamingStats run(genome::FastqStreamReader& reader,
                     SamWriter& writer) const;

  const StreamingOptions& options() const { return options_; }

 private:
  const AlignmentEngine* engine_;
  StreamingOptions options_;
};

}  // namespace pim::align
