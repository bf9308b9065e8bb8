#include "src/align/streaming_pipeline.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/align/sam_writer.h"

namespace pim::align {

StreamingPipeline::StreamingPipeline(const AlignmentEngine& engine,
                                     StreamingOptions options)
    : engine_(&engine), options_(options) {}

namespace {

/// Streaming-stage metric handles, registered once per run. Inert (single
/// branch per call, no clock reads) when no registry is installed.
struct StreamMetrics {
  bool installed = false;
  obs::Counter reads;
  obs::Counter batches;
  obs::Counter chunks;
  obs::Counter producer_wait_us;
  obs::Counter consumer_wait_us;
  obs::Histogram producer_fill_ms;
  obs::Histogram consumer_align_ms;
  obs::Histogram chunk_latency_ms;
  obs::Gauge peak_batch_bytes;

  explicit StreamMetrics(obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    installed = true;
    reads = registry->counter("stream.reads");
    batches = registry->counter("stream.batches");
    chunks = registry->counter("stream.chunks");
    producer_wait_us = registry->counter("stream.producer_wait_us");
    consumer_wait_us = registry->counter("stream.consumer_wait_us");
    producer_fill_ms = registry->histogram("stream.producer_fill_ms");
    consumer_align_ms = registry->histogram("stream.consumer_align_ms");
    chunk_latency_ms = registry->histogram("stream.chunk_latency_ms");
    peak_batch_bytes = registry->gauge("stream.peak_batch_bytes");
  }
};

}  // namespace

StreamingStats StreamingPipeline::run(genome::FastqStreamReader& reader,
                                      const ChunkSink& sink) const {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  StreamingStats stats;
  const std::size_t batch_reads =
      std::max<std::size_t>(1, options_.batch_reads);
  StreamMetrics metrics(options_.metrics);
  obs::TraceLog* const trace = options_.trace;
  ParallelOptions parallel = options_.parallel;
  if (parallel.metrics == nullptr) parallel.metrics = options_.metrics;

  std::mutex mu;
  std::condition_variable cv;
  // Double buffering: two arena tokens circulate producer -> ready ->
  // consumer -> free list. The producer blocks for a token, so at most two
  // batch generations exist at any instant, and (via
  // ReadBatchBuilder::reset) their arenas are recycled, not reallocated.
  std::vector<ReadBatch> free_arenas(2);
  std::deque<ReadBatch> ready;
  bool producer_done = false;
  std::atomic<bool> abort{false};
  std::exception_ptr producer_error;

  std::thread producer([&]() {
    try {
      ReadBatchBuilder builder;
      genome::FastqRecord record;
      bool more = true;
      while (more && !abort.load(std::memory_order_relaxed)) {
        ReadBatch arena;
        {
          std::unique_lock<std::mutex> lk(mu);
          const auto free_ready = [&] {
            return abort.load(std::memory_order_relaxed) ||
                   !free_arenas.empty();
          };
          if (!free_ready()) {
            // Both arena slots in use: the producer is ahead of the
            // consumer (backpressure stall). Only the blocking case reads
            // the clock, and only with a sink installed.
            if (metrics.installed) {
              const auto w0 = Clock::now();
              cv.wait(lk, free_ready);
              metrics.producer_wait_us.add(static_cast<std::uint64_t>(
                  std::chrono::duration<double, std::micro>(Clock::now() -
                                                            w0)
                      .count()));
            } else {
              cv.wait(lk, free_ready);
            }
          }
          if (abort.load(std::memory_order_relaxed)) break;
          arena = std::move(free_arenas.back());
          free_arenas.pop_back();
        }
        const bool timed = metrics.installed || trace != nullptr;
        const auto f0 = timed ? Clock::now() : Clock::time_point{};
        builder.reset(std::move(arena));
        std::size_t n = 0;
        while (n < batch_reads && !abort.load(std::memory_order_relaxed) &&
               (more = reader.next(record))) {
          builder.add(record);
          ++n;
        }
        if (n == 0) break;  // end of stream on a generation boundary
        {
          std::lock_guard<std::mutex> lk(mu);
          ready.push_back(builder.build());
        }
        if (timed) {
          const double fill_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - f0)
                  .count();
          metrics.producer_fill_ms.observe(fill_ms);
          if (trace != nullptr) {
            trace->record("stream.fill", trace->now_ms() - fill_ms, fill_ms,
                          0);
          }
        }
        cv.notify_all();
      }
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu);
      producer_error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      producer_done = true;
    }
    cv.notify_all();
  });

  std::exception_ptr consumer_error;
  std::size_t global_base = 0;
  std::size_t prev_batch_bytes = 0;
  try {
    while (true) {
      ReadBatch batch;
      {
        const auto w0 = Clock::now();
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !ready.empty() || producer_done; });
        const double waited_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - w0)
                .count();
        stats.ingest_wait_ms += waited_ms;
        metrics.consumer_wait_us.add(
            static_cast<std::uint64_t>(waited_ms * 1e3));
        if (ready.empty()) break;  // producer finished and queue drained
        batch = std::move(ready.front());
        ready.pop_front();
      }
      const std::size_t batch_bytes = batch.memory_bytes();
      stats.peak_batch_bytes =
          std::max(stats.peak_batch_bytes, batch_bytes + prev_batch_bytes);
      prev_batch_bytes = batch_bytes;
      metrics.peak_batch_bytes.set(
          static_cast<double>(stats.peak_batch_bytes));

      // Chunk latency is measured from the generation's align start: how
      // long a completed slice waited (in-order delivery + scheduling)
      // before reaching the sink.
      const auto gen0 = metrics.installed ? Clock::now() : Clock::time_point{};
      // Rebase chunk indices to the whole stream so sinks see one
      // continuous read sequence across generations.
      const ChunkSink rebased = [&](const BatchResultChunk& chunk) {
        BatchResultChunk global = chunk;
        global.base_index = global_base + chunk.begin;
        ++stats.chunks;
        if (metrics.installed) {
          metrics.chunks.add();
          metrics.chunk_latency_ms.observe(
              std::chrono::duration<double, std::milli>(Clock::now() - gen0)
                  .count());
        }
        sink(global);
      };
      const EngineStats generation =
          engine_->align_batch_chunked(batch, rebased, parallel);
      stats.engine.merge(generation);
      ++stats.batches;
      stats.reads += batch.size();
      global_base += batch.size();
      metrics.consumer_align_ms.observe(generation.wall_ms);
      metrics.reads.add(batch.size());
      metrics.batches.add();
      if (trace != nullptr) {
        trace->record("stream.align", trace->now_ms() - generation.wall_ms,
                      generation.wall_ms, 0);
      }

      {
        std::lock_guard<std::mutex> lk(mu);
        free_arenas.push_back(std::move(batch));
      }
      cv.notify_all();
    }
  } catch (...) {
    consumer_error = std::current_exception();
    abort.store(true, std::memory_order_relaxed);
    cv.notify_all();
  }
  producer.join();
  if (consumer_error) std::rethrow_exception(consumer_error);
  if (producer_error) std::rethrow_exception(producer_error);

  stats.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return stats;
}

StreamingStats StreamingPipeline::run(genome::FastqStreamReader& reader,
                                      SamWriter& writer) const {
  return run(reader, [&writer](const BatchResultChunk& chunk) {
    writer.write_chunk(chunk);
  });
}

}  // namespace pim::align
