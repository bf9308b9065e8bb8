#include "src/serve/batcher.h"

#include <algorithm>
#include <exception>
#include <utility>
#include <vector>

#include "src/align/chunk_demux.h"

namespace pim::serve {

namespace {

double ms_since(ServiceClock::time_point t0, ServiceClock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

DynamicBatcher::DynamicBatcher(const align::AlignmentEngine& engine,
                               RequestQueue& queue, ServiceCounters* counters,
                               ServeMetrics metrics, BatchPolicy policy,
                               obs::RequestTracer* tracer,
                               std::function<double()> stall_probe)
    : engine_(&engine),
      queue_(&queue),
      counters_(counters),
      metrics_(metrics),
      policy_(policy),
      tracer_(tracer),
      stall_probe_(std::move(stall_probe)) {
  thread_ = std::thread([this] { run(); });
}

DynamicBatcher::~DynamicBatcher() { join(); }

void DynamicBatcher::join() {
  std::lock_guard<std::mutex> lk(join_mu_);
  if (joined_) return;
  thread_.join();
  joined_ = true;
}

align::EngineStats DynamicBatcher::engine_stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return engine_stats_;
}

void DynamicBatcher::run() {
  align::ReadBatchBuilder builder;
  const RequestQueue::GatherPolicy gather{policy_.max_batch_reads,
                                          policy_.max_linger};
  while (true) {
    auto pending = queue_->gather(gather);
    if (pending.empty()) break;  // queue closed and drained
    dispatch(std::move(pending), builder);
  }
}

void DynamicBatcher::dispatch(std::vector<PendingRequest> pending,
                              align::ReadBatchBuilder& builder) {
  const auto now = ServiceClock::now();

  // Deadline enforcement at dequeue: expired requests fail fast and never
  // consume engine cycles. (Their reads also don't dilute the batch.)
  std::vector<PendingRequest> live;
  live.reserve(pending.size());
  for (auto& p : pending) {
    if (p.request.deadline && *p.request.deadline < now) {
      counters_->expired.fetch_add(1, std::memory_order_relaxed);
      metrics_.expired.add();
      AlignResponse response;
      response.status = RequestStatus::kExpired;
      response.reason = "deadline expired before dispatch";
      response.queue_ms = ms_since(p.admitted_at, now);
      response.latency_ms = response.queue_ms;
      if (p.trace.traced()) {
        p.trace.mark(obs::RequestPhase::kExpire, tracer_->to_ms(now));
        response.trace = p.trace;
        response.breakdown = obs::breakdown_of(p.trace);
        tracer_->record(p.trace);
      }
      p.promise.set_value(std::move(response));
      if (p.request.on_complete) p.request.on_complete();
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  // Pack the survivors into one batch; record per-request extents for the
  // demux. The builder's arenas are recycled across dispatches.
  std::size_t total_reads = 0;
  auto oldest = live.front().admitted_at;
  for (const auto& p : live) {
    total_reads += p.request.num_reads();
    oldest = std::min(oldest, p.admitted_at);
  }
  builder.reserve(total_reads, total_reads * 128);
  std::vector<std::size_t> bounds;
  bounds.reserve(live.size() + 1);
  bounds.push_back(0);
  for (const auto& p : live) {
    for (const auto& read : p.request.reads) builder.add(read);
    bounds.push_back(bounds.back() + p.request.num_reads());
  }
  align::ReadBatch batch = builder.build();

  const std::uint64_t seq =
      counters_->batches.fetch_add(1, std::memory_order_relaxed) + 1;
  if (tracer_ != nullptr) {
    // The batch is packed and sealed; stamp every member at one instant and
    // link it to the batch so a slow request names its co-travellers.
    const double seal_ms = tracer_->now_ms();
    for (auto& p : live) {
      if (!p.trace.traced()) continue;
      p.trace.mark(obs::RequestPhase::kBatchSeal, seal_ms);
      p.trace.batch_seq = seq;
      p.trace.batch_requests = static_cast<std::uint32_t>(live.size());
      p.trace.batch_reads = total_reads;
    }
  }
  counters_->batched_reads.fetch_add(total_reads, std::memory_order_relaxed);
  metrics_.batches.add();
  metrics_.batched_reads.add(total_reads);
  metrics_.batch_reads_hist.observe(static_cast<double>(total_reads));
  metrics_.batch_fill.observe(
      policy_.max_batch_reads
          ? static_cast<double>(total_reads) /
                static_cast<double>(policy_.max_batch_reads)
          : 1.0);
  metrics_.linger_us.observe(
      std::chrono::duration<double, std::micro>(now - oldest).count());

  // Pre-size each response and stamp dispatch-time accounting.
  struct InFlight {
    PendingRequest pending;
    AlignResponse response;
    bool done = false;
  };
  std::vector<InFlight> flights;
  flights.reserve(live.size());
  for (auto& p : live) {
    InFlight f;
    f.response.results.reserve(p.request.num_reads());
    f.response.queue_ms = ms_since(p.admitted_at, now);
    f.response.batch_seq = seq;
    f.response.batch_reads = total_reads;
    f.pending = std::move(p);
    flights.push_back(std::move(f));
  }
  for (const auto& f : flights) {
    metrics_.queue_wait_ms.observe(f.response.queue_ms);
  }

  // Demux the chunk seam back onto request extents: slices copy results
  // out of the (recycled) chunk arena, completion resolves the future —
  // a request never waits for later strangers in its batch.
  // `stall_start` is the backend's cumulative staging stall at dispatch;
  // the delta each completion sees is the stall accrued while this batch
  // was on the engine, attributed pro-rata by reads.
  double stall_start = 0.0;
  align::ChunkDemux demux(
      std::move(bounds),
      [this, &flights](std::size_t interval,
                       const align::BatchResultChunk& chunk, std::size_t begin,
                       std::size_t end) {
        InFlight& f = flights[interval];
        if (f.pending.trace.traced() &&
            !f.pending.trace.has(obs::RequestPhase::kFirstChunk)) {
          f.pending.trace.mark(obs::RequestPhase::kFirstChunk,
                               tracer_->now_ms());
        }
        auto& results = f.response.results;
        for (std::size_t i = begin; i < end; ++i) {
          results.push_back(chunk.result->result(i - chunk.begin));
        }
      },
      [this, &flights, &stall_start, total_reads](std::size_t interval) {
        InFlight& f = flights[interval];
        const auto completed_at = ServiceClock::now();
        f.response.latency_ms = ms_since(f.pending.admitted_at, completed_at);
        counters_->completed.fetch_add(1, std::memory_order_relaxed);
        metrics_.completed.add();
        metrics_.latency_ms.observe(f.response.latency_ms);
        if (f.pending.trace.traced()) {
          obs::RequestTrace& trace = f.pending.trace;
          trace.mark(obs::RequestPhase::kComplete,
                     tracer_->to_ms(completed_at));
          if (stall_probe_) {
            const double stall_ns = stall_probe_() - stall_start;
            if (stall_ns > 0.0) {
              trace.stall_ms = stall_ns * 1e-6 *
                               (static_cast<double>(trace.reads) /
                                static_cast<double>(total_reads));
            }
          }
          f.response.trace = trace;
          f.response.breakdown = obs::breakdown_of(trace);
          tracer_->record(trace);
        }
        f.done = true;
        f.pending.promise.set_value(std::move(f.response));
        if (f.pending.request.on_complete) f.pending.request.on_complete();
      });

  if (tracer_ != nullptr) {
    const double dispatch_ms = tracer_->now_ms();
    for (auto& f : flights) {
      if (f.pending.trace.traced()) {
        f.pending.trace.mark(obs::RequestPhase::kDispatch, dispatch_ms);
      }
    }
    if (stall_probe_) stall_start = stall_probe_();
  }

  try {
    const align::EngineStats stats =
        engine_->align_batch_chunked(batch, demux.sink(), policy_.parallel);
    std::lock_guard<std::mutex> lk(stats_mu_);
    engine_stats_.merge(stats);
  } catch (...) {
    // Engine/backend failure: surface it to the affected requests, keep
    // the service alive for the rest.
    const std::exception_ptr error = std::current_exception();
    for (auto& f : flights) {
      if (!f.done) {
        f.pending.promise.set_exception(error);
        if (f.pending.request.on_complete) f.pending.request.on_complete();
      }
    }
    builder.reset();
    return;
  }
  builder.reset(std::move(batch));  // recycle the arena for the next batch
}

}  // namespace pim::serve
