#include "src/align/parallel_aligner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

namespace pim::align {

namespace {

std::size_t pick_chunk_size(std::size_t num_reads, std::size_t num_threads,
                            std::size_t requested) {
  if (requested != 0) return requested;
  // ~8 chunks per thread balances load without losing range amortization.
  const std::size_t target = num_reads / (num_threads * 8) + 1;
  return std::max<std::size_t>(std::min<std::size_t>(target, 1024),
                               std::min<std::size_t>(num_reads, 16));
}

std::size_t resolve_threads(std::size_t requested, std::size_t num_reads) {
  std::size_t num_threads = requested;
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return std::min(num_threads, std::max<std::size_t>(1, num_reads));
}

/// Scheduler metric handles, registered once per run (inert when no
/// registry is installed — every observe/add is then a single branch).
struct SchedMetrics {
  bool installed = false;
  obs::Histogram chunk_align_ms;
  obs::Histogram window_occupancy;
  obs::Histogram worker_busy_ms;
  obs::Histogram worker_idle_ms;
  obs::Counter chunks;
  obs::Counter window_wait_us;

  explicit SchedMetrics(obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    installed = true;
    chunk_align_ms = registry->histogram("sched.chunk_align_ms");
    window_occupancy = registry->histogram("sched.window_occupancy");
    worker_busy_ms = registry->histogram("sched.worker_busy_ms");
    worker_idle_ms = registry->histogram("sched.worker_idle_ms");
    chunks = registry->counter("sched.chunks");
    window_wait_us = registry->counter("sched.window_wait_us");
  }
};

}  // namespace

EngineStats align_batch_parallel_chunked(const AlignmentEngine& engine,
                                         const ReadBatch& batch,
                                         const ChunkSink& sink,
                                         ParallelOptions options,
                                         bool best_hit_only) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t num_threads =
      resolve_threads(options.num_threads, batch.size());

  if (!engine.thread_safe() || num_threads == 1 || batch.size() == 0) {
    // Serial engines deliver through their own chunked path (ShardedEngine
    // overrides it with per-shard completion forwarding).
    return engine.align_batch_chunked(batch, options.chunk_size, sink,
                                      best_hit_only);
  }

  const std::size_t chunk_size =
      pick_chunk_size(batch.size(), num_threads, options.chunk_size);
  const std::size_t num_chunks = (batch.size() + chunk_size - 1) / chunk_size;
  // Workers may run at most `window` chunks ahead of the next undelivered
  // one, bounding completed-but-undelivered results to O(threads). Must be
  // >= 1 so the worker holding the next chunk in line never waits.
  const std::size_t window = std::max<std::size_t>(2 * num_threads, 2);

  std::vector<BatchResult> chunks(num_chunks);
  std::vector<char> chunk_done(num_chunks, 0);
  std::atomic<std::size_t> cursor{0};

  std::mutex mu;
  std::condition_variable cv;
  std::size_t next_emit = 0;   // first undelivered chunk
  bool emitting = false;       // one drainer at a time
  bool aborted = false;
  std::exception_ptr error;
  EngineStats total;
  SchedMetrics metrics(options.metrics);

  auto worker = [&]() {
    using Clock = std::chrono::steady_clock;
    const auto worker_start = metrics.installed ? Clock::now()
                                                : Clock::time_point{};
    double busy_ms = 0.0;
    double wait_ms = 0.0;
    while (true) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      {
        std::unique_lock<std::mutex> lk(mu);
        // Occupancy of the bounded start window at grab time: how many
        // chunks are running or undelivered ahead of this one.
        if (metrics.installed) {
          metrics.window_occupancy.observe(
              static_cast<double>(c - next_emit));
        }
        if (aborted) break;
        if (c >= next_emit + window) {
          // Only time the blocking case: the fast path stays clock-free.
          const auto w0 = Clock::now();
          cv.wait(lk, [&] { return aborted || c < next_emit + window; });
          wait_ms += std::chrono::duration<double, std::milli>(Clock::now() -
                                                               w0)
                         .count();
        }
        if (aborted) break;
      }
      const std::size_t begin = c * chunk_size;
      const std::size_t end = std::min(begin + chunk_size, batch.size());
      const auto a0 = metrics.installed ? Clock::now() : Clock::time_point{};
      try {
        chunks[c].set_best_hit_only(best_hit_only);
        chunks[c].reserve(end - begin, (end - begin) * 2);
        engine.align_range(batch, begin, end, chunks[c]);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!error) error = std::current_exception();
        aborted = true;
        cv.notify_all();
        break;
      }
      if (metrics.installed) {
        const double d =
            std::chrono::duration<double, std::milli>(Clock::now() - a0)
                .count();
        metrics.chunk_align_ms.observe(d);
        busy_ms += d;
      }

      std::unique_lock<std::mutex> lk(mu);
      chunk_done[c] = 1;
      if (aborted || emitting || c != next_emit) {
        cv.notify_all();
        continue;
      }
      // This worker completed the lowest outstanding chunk: drain every
      // consecutive finished chunk to the sink (unlocked — the `emitting`
      // flag keeps delivery single-threaded and in order) and free its
      // arena. New completions land in chunk_done[] meanwhile and are
      // picked up by the loop condition.
      emitting = true;
      while (!aborted && next_emit < num_chunks && chunk_done[next_emit]) {
        const std::size_t idx = next_emit;
        BatchResult delivered = std::move(chunks[idx]);
        lk.unlock();
        const std::size_t b = idx * chunk_size;
        const std::size_t e = std::min(b + chunk_size, batch.size());
        try {
          sink(BatchResultChunk{&batch, b, e, &delivered, b});
        } catch (...) {
          lk.lock();
          if (!error) error = std::current_exception();
          aborted = true;
          break;
        }
        lk.lock();
        total.merge(delivered.stats());
        ++total.chunks;
        metrics.chunks.add();
        ++next_emit;
        cv.notify_all();
      }
      emitting = false;
      cv.notify_all();
    }
    if (wait_ms > 0.0) {
      std::lock_guard<std::mutex> lk(mu);
      total.stall_ms += wait_ms;
    }
    metrics.window_wait_us.add(static_cast<std::uint64_t>(wait_ms * 1e3));
    if (metrics.installed) {
      const double wall = std::chrono::duration<double, std::milli>(
                              Clock::now() - worker_start)
                              .count();
      metrics.worker_busy_ms.observe(busy_ms);
      metrics.worker_idle_ms.observe(std::max(0.0, wall - busy_ms));
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);

  const auto t1 = std::chrono::steady_clock::now();
  total.batches = 1;
  total.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return total;
}

void align_batch_parallel(const AlignmentEngine& engine,
                          const ReadBatch& batch, BatchResult& out,
                          ParallelOptions options) {
  const std::size_t num_threads =
      resolve_threads(options.num_threads, batch.size());
  if (!engine.thread_safe() || num_threads == 1 || batch.size() == 0) {
    engine.align_batch(batch, out);
    return;
  }

  // The materializing front-end is just a sink over the streaming scheduler:
  // chunks arrive in index order, so appending them reproduces the serial
  // layout bit for bit.
  const bool best_hit_only = out.best_hit_only();
  out.clear();
  out.reserve(batch.size(), batch.size() * 2);
  const EngineStats stats = align_batch_parallel_chunked(
      engine, batch,
      [&out](const BatchResultChunk& chunk) { out.append(*chunk.result); },
      options, best_hit_only);
  out.stats().batches = stats.batches;
  out.stats().wall_ms = stats.wall_ms;
  out.stats().result_bytes = out.memory_bytes();
  // The scheduler-side counters added since S37 used to be dropped here:
  // the per-chunk appends above carry zeros for them, so route the
  // scheduler's own accounting through (see EngineStats field-coverage
  // test in tests/test_engine.cpp).
  out.stats().chunks = stats.chunks;
  out.stats().stall_ms = stats.stall_ms;
}

}  // namespace pim::align
