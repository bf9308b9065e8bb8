// Wire types of the alignment service layer (S41).
//
// The serving subsystem turns the repo's batch-first engines into a
// multi-client, latency-sensitive front door: arbitrary threads submit
// AlignRequests (one or many reads, a priority class, an optional
// deadline) and get a future for an AlignResponse back. Everything the
// queue, the dynamic batcher, and the service facade share — request /
// response structs, status codes, the steady-clock vocabulary, the shared
// tally block, and the serve.* metric handles — lives here so the pieces
// compose without cyclic includes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "src/align/types.h"
#include "src/genome/alphabet.h"
#include "src/obs/metrics.h"
#include "src/obs/request_trace.h"

namespace pim::serve {

/// Service time base. Deadlines are absolute steady-clock points so queue
/// residency counts against them (a wall-clock deadline would jump under
/// NTP adjustments mid-queue).
using ServiceClock = std::chrono::steady_clock;

/// Absolute deadline `delta` from now — the common way clients build one.
inline ServiceClock::time_point deadline_in(std::chrono::microseconds delta) {
  return ServiceClock::now() + delta;
}

/// Two-class priority: interactive requests are dequeued before batch ones
/// whenever both are queued (FIFO within a class). Two classes cover the
/// serving split that matters — a clinician's panel vs a cohort backfill —
/// without inviting priority-inversion puzzles.
enum class RequestPriority : std::uint8_t { kInteractive = 0, kBatch = 1 };
inline constexpr std::size_t kNumPriorities = 2;

inline const char* to_string(RequestPriority priority) {
  return priority == RequestPriority::kInteractive ? "interactive" : "batch";
}

struct AlignRequest {
  /// Reads to align, in request order (the response's results index
  /// matches). An empty request is legal and completes immediately.
  std::vector<std::vector<genome::Base>> reads;
  /// Which reference to align against (S42 multi-reference serving). On a
  /// multi-reference service this selects the lane (and faults the mapped
  /// index in through the IndexCache); it must name a registered reference
  /// and must not be empty. On a single-engine service it must be empty —
  /// the engine is fixed. Violations fail fast with kRejected.
  std::string reference_id;
  RequestPriority priority = RequestPriority::kBatch;
  /// Absolute deadline. Enforced at dequeue: a request whose deadline has
  /// passed before its batch is assembled fails fast with kExpired instead
  /// of wasting engine cycles. (A deadline cannot abort a batch already on
  /// the engine.) Within a priority class the queue gathers
  /// earliest-deadline-first; deadline-less requests sort after any
  /// deadline, FIFO among themselves.
  std::optional<ServiceClock::time_point> deadline;
  /// When the request arrived over a host boundary (net::AlignServer), the
  /// instant its frame was fully reassembled off the socket. Stamps the S46
  /// kRecv trace phase so the breakdown attributes wire ingress separately
  /// from admission. In-process callers leave it unset.
  std::optional<ServiceClock::time_point> received_at;
  /// Non-blocking completion hook (S46): invoked exactly once, after the
  /// response future becomes ready (any terminal status, including a
  /// set_exception from an engine failure), from whichever thread fulfilled
  /// the promise. Must be cheap and must not call back into the service —
  /// net::AlignServer uses it to nudge its event loop instead of parking a
  /// thread per future. Null = no hook.
  std::function<void()> on_complete;

  std::size_t num_reads() const { return reads.size(); }
};

enum class RequestStatus : std::uint8_t {
  kOk = 0,        ///< Aligned; results holds one entry per read.
  kRejected,      ///< Shed at admission (queue full); reason says why.
  kExpired,       ///< Deadline passed before dispatch.
  kShutdown,      ///< Submitted after close, or aborted by a non-drain stop.
};

const char* to_string(RequestStatus status);

struct AlignResponse {
  RequestStatus status = RequestStatus::kOk;
  /// Human-readable cause for non-kOk outcomes ("queue full: ...").
  std::string reason;
  /// One entry per request read, bit-identical to a direct
  /// AlignmentEngine::align_batch over the same reads (asserted in
  /// tests/test_serve.cpp). Empty unless status == kOk.
  std::vector<align::AlignmentResult> results;
  double queue_ms = 0.0;    ///< Admission -> batch dispatch.
  double latency_ms = 0.0;  ///< Admission -> completion (end to end).
  std::uint64_t batch_seq = 0;   ///< Service batch that carried it (1-based).
  std::size_t batch_reads = 0;   ///< Reads coalesced into that batch.

  /// S45 per-request tracing, populated when ServiceOptions::tracer is
  /// installed (trace.traced() false otherwise). `trace` is the full phase
  /// timeline (monotonic request id, per-phase timestamps, batch link);
  /// `breakdown` is its per-phase duration attribution, whose segments sum
  /// exactly to breakdown.total_ms and reconcile with latency_ms within
  /// clock-read error (exit-code-asserted in bench/serve_latency).
  obs::RequestTrace trace;
  obs::LatencyBreakdown breakdown;

  std::uint64_t request_id() const { return trace.id; }
  bool ok() const { return status == RequestStatus::kOk; }
};

using ResponseFuture = std::future<AlignResponse>;

/// Cumulative service tallies, shared by the queue (admission side) and the
/// batcher (dispatch side) and snapshotted by AlignmentService::counters().
/// Atomics, not a mutex: every field is touched on the submit or dispatch
/// hot path.
struct ServiceCounters {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> rejected{0};           ///< Load-shed (queue full).
  std::atomic<std::uint64_t> rejected_shutdown{0};  ///< Submitted after close.
  std::atomic<std::uint64_t> expired{0};            ///< Deadline at dequeue.
  std::atomic<std::uint64_t> aborted{0};            ///< Failed by abort stop.
  std::atomic<std::uint64_t> completed{0};          ///< Served with kOk.
  std::atomic<std::uint64_t> batches{0};            ///< Batches dispatched.
  std::atomic<std::uint64_t> batched_reads{0};      ///< Reads through batches.

  struct Snapshot {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t rejected_shutdown = 0;
    std::uint64_t expired = 0;
    std::uint64_t aborted = 0;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    std::uint64_t batched_reads = 0;
  };
  Snapshot snapshot() const {
    Snapshot s;
    s.submitted = submitted.load(std::memory_order_relaxed);
    s.admitted = admitted.load(std::memory_order_relaxed);
    s.rejected = rejected.load(std::memory_order_relaxed);
    s.rejected_shutdown = rejected_shutdown.load(std::memory_order_relaxed);
    s.expired = expired.load(std::memory_order_relaxed);
    s.aborted = aborted.load(std::memory_order_relaxed);
    s.completed = completed.load(std::memory_order_relaxed);
    s.batches = batches.load(std::memory_order_relaxed);
    s.batched_reads = batched_reads.load(std::memory_order_relaxed);
    return s;
  }
};

/// serve.* metric handles (S40 registry). Built once at service setup;
/// default-constructed (inert) when no registry is installed, so the hot
/// path pays one branch per event. Handles are value types — the queue and
/// batcher each hold a copy.
struct ServeMetrics {
  obs::Counter submitted;
  obs::Counter admitted;
  obs::Counter rejected;
  obs::Counter expired;
  obs::Counter completed;
  obs::Counter batches;
  obs::Counter batched_reads;
  obs::Gauge queue_depth;        ///< Requests queued (set on every change).
  obs::Gauge queue_reads;        ///< Reads queued.
  obs::Histogram queue_wait_ms;  ///< Admission -> dispatch, per request.
  obs::Histogram latency_ms;     ///< Admission -> completion, per request.
  obs::Histogram batch_fill;     ///< batch reads / max_batch_reads, in [0,1+].
  obs::Histogram batch_reads_hist;  ///< Absolute coalesced batch size.
  obs::Histogram linger_us;      ///< Oldest-request age at dispatch.

  static ServeMetrics install(obs::MetricsRegistry* registry) {
    ServeMetrics m;
    if (registry == nullptr) return m;
    m.submitted = registry->counter("serve.submitted");
    m.admitted = registry->counter("serve.admitted");
    m.rejected = registry->counter("serve.rejected");
    m.expired = registry->counter("serve.expired");
    m.completed = registry->counter("serve.completed");
    m.batches = registry->counter("serve.batches");
    m.batched_reads = registry->counter("serve.reads");
    m.queue_depth = registry->gauge("serve.queue_depth");
    m.queue_reads = registry->gauge("serve.queue_reads");
    m.queue_wait_ms = registry->histogram("serve.queue_wait_ms");
    m.latency_ms = registry->histogram("serve.latency_ms");
    m.batch_fill = registry->histogram("serve.batch_fill");
    m.batch_reads_hist = registry->histogram("serve.batch_reads");
    m.linger_us = registry->histogram("serve.linger_us");
    return m;
  }
};

}  // namespace pim::serve
