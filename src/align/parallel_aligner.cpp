#include "src/align/parallel_aligner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pim::align {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::size_t resolve_threads(std::size_t requested, std::size_t num_reads) {
  std::size_t num_threads = requested;
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return std::min(num_threads, std::max<std::size_t>(1, num_reads));
}

std::size_t pick_chunk_size(std::size_t num_reads, std::size_t num_threads,
                            std::size_t requested) {
  if (requested != 0) return requested;
  // One thread has no load to balance: big chunks, one per 1024 reads.
  if (num_threads == 1) {
    return std::max<std::size_t>(1, std::min<std::size_t>(num_reads, 1024));
  }
  // ~8 chunks per thread balances load without losing range amortization.
  const std::size_t target = num_reads / (num_threads * 8) + 1;
  return std::max<std::size_t>(std::min<std::size_t>(target, 1024),
                               std::min<std::size_t>(num_reads, 16));
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

namespace detail {

EngineStats run_in_order(const ReadBatch& batch,
                         std::span<const RangeTask> tasks, std::size_t threads,
                         const ChunkSink& sink, obs::MetricsRegistry* metrics,
                         const TaskDone& on_done) {
  const auto t0 = Clock::now();
  const std::size_t num_tasks = tasks.size();
  threads = std::clamp<std::size_t>(threads, 1,
                                    std::max<std::size_t>(1, num_tasks));
  // Workers may run at most `window` tasks ahead of the next undelivered
  // one, bounding completed-but-undelivered results to O(threads); the
  // worker holding the next task in line never waits. Task c aligns into
  // slots[c % window]: the slot's previous task, c - window, was delivered
  // before c could start, so the arenas are recycled, not reallocated.
  const std::size_t window = 2 * threads;
  std::vector<BatchResult> slots(std::min(window, num_tasks));
  std::vector<char> slot_done(slots.size(), 0);
  std::atomic<std::size_t> cursor{0};

  std::mutex mu;
  std::condition_variable cv;
  std::size_t next_emit = 0;  // first undelivered task
  bool emitting = false;      // one drainer at a time
  bool aborted = false;
  std::exception_ptr error;
  EngineStats total;
  SchedMetrics sched(metrics);
  const bool timed = sched.installed || static_cast<bool>(on_done);

  auto worker = [&]() {
    const auto worker_start =
        sched.installed ? Clock::now() : Clock::time_point{};
    double busy_ms = 0.0;
    double wait_ms = 0.0;
    while (true) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_tasks) break;
      {
        std::unique_lock<std::mutex> lk(mu);
        // Occupancy of the bounded start window at grab time: how many
        // tasks are running or undelivered ahead of this one.
        sched.window_occupancy.observe(static_cast<double>(c - next_emit));
        if (!aborted && c >= next_emit + window) {
          // Only time the blocking case: the fast path stays clock-free.
          const auto w0 = Clock::now();
          cv.wait(lk, [&] { return aborted || c < next_emit + window; });
          wait_ms += ms_since(w0);
        }
        if (aborted) break;
      }
      const RangeTask& task = tasks[c];
      BatchResult& result = slots[c % window];
      const auto a0 = timed ? Clock::now() : Clock::time_point{};
      try {
        result.clear();
        result.reserve(task.end - task.begin, (task.end - task.begin) * 2);
        task.engine->align_range(batch, task.begin, task.end, result);
        if (timed) {
          const double align_ms = ms_since(a0);
          sched.chunk_align_ms.observe(align_ms);
          busy_ms += align_ms;
          if (on_done) on_done(c, result, align_ms);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!error) error = std::current_exception();
        aborted = true;
        cv.notify_all();
        break;
      }

      std::unique_lock<std::mutex> lk(mu);
      slot_done[c % window] = 1;
      if (aborted || emitting || c != next_emit) {
        cv.notify_all();
        continue;
      }
      // This worker completed the lowest outstanding task: drain every
      // consecutive finished task to the sink (unlocked — the `emitting`
      // flag keeps delivery single-threaded and in order). New completions
      // land in slot_done[] meanwhile and are picked up by the loop
      // condition.
      emitting = true;
      while (!aborted && next_emit < num_tasks &&
             slot_done[next_emit % window]) {
        const RangeTask& next = tasks[next_emit];
        const BatchResult& delivered = slots[next_emit % window];
        lk.unlock();
        try {
          sink(BatchResultChunk{&batch, next.begin, next.end, &delivered,
                                next.begin});
        } catch (...) {
          lk.lock();
          if (!error) error = std::current_exception();
          aborted = true;
          break;
        }
        lk.lock();
        total.merge(delivered.stats());
        ++total.chunks;
        sched.chunks.add();
        slot_done[next_emit % window] = 0;
        ++next_emit;
        cv.notify_all();
      }
      emitting = false;
      cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      total.stall_ms += wait_ms;
    }
    sched.window_wait_us.add(static_cast<std::uint64_t>(wait_ms * 1e3));
    if (sched.installed) {
      sched.worker_busy_ms.observe(busy_ms);
      sched.worker_idle_ms.observe(
          std::max(0.0, ms_since(worker_start) - busy_ms));
    }
  };

  // The calling thread is worker 0, so a one-thread run starts no thread.
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  try {
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  } catch (...) {
    // Thread creation failed: stop the workers already started, then join
    // them below before rethrowing.
    std::lock_guard<std::mutex> lk(mu);
    if (!error) error = std::current_exception();
    aborted = true;
    cv.notify_all();
  }
  worker();
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);

  total.batches = 1;
  total.wall_ms = ms_since(t0);
  return total;
}

}  // namespace detail

EngineStats AlignmentEngine::align_batch_chunked(
    const ReadBatch& batch, const ChunkSink& sink,
    const ParallelOptions& options) const {
  const std::size_t threads =
      thread_safe() ? resolve_threads(options.num_threads, batch.size()) : 1;
  const std::size_t chunk_size =
      pick_chunk_size(batch.size(), threads, options.chunk_size);
  std::vector<detail::RangeTask> tasks;
  tasks.reserve(batch.size() / chunk_size + 1);
  for (std::size_t begin = 0; begin < batch.size(); begin += chunk_size) {
    tasks.push_back(detail::RangeTask{
        this, begin, std::min(begin + chunk_size, batch.size())});
  }
  return detail::run_in_order(batch, tasks, threads, sink, options.metrics);
}

void align_batch_parallel(const AlignmentEngine& engine,
                          const ReadBatch& batch, BatchResult& out,
                          ParallelOptions options) {
  // Chunks arrive in index order, so appending them reproduces the serial
  // layout bit for bit.
  out.clear();
  out.reserve(batch.size(), batch.size() * 2);
  const EngineStats stats = engine.align_batch_chunked(
      batch,
      [&out](const BatchResultChunk& chunk) { out.append(*chunk.result); },
      options);
  out.stats().batches = stats.batches;
  out.stats().wall_ms = stats.wall_ms;
  out.stats().result_bytes = out.memory_bytes();
  // The appended chunks carry zeros for the scheduler-side counters: route
  // the scheduler's own accounting through (see the EngineStats
  // field-coverage test in tests/test_engine.cpp).
  out.stats().chunks = stats.chunks;
  out.stats().stall_ms = stats.stall_ms;
}

}  // namespace pim::align
