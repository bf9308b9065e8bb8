#include "src/serve/service.h"

#include <future>
#include <utility>
#include <vector>

namespace pim::serve {

/// One reference's serving stack: the pinned mapped index (kept alive here
/// even if the cache evicts it mid-flight), a SoftwareEngine borrowing its
/// FmIndex, and a dedicated inner service (queue + batcher thread). The
/// members construct in exactly this order, so the engine and service only
/// ever see a live index.
namespace {

std::unique_ptr<align::AlignmentEngine> make_lane_engine(
    const index::MappedIndex& pinned, const MultiReferenceOptions& options) {
  switch (options.engine_kind) {
    case LaneEngineKind::kSeedExtend:
      return std::make_unique<align::SeedExtendEngine>(
          pinned.index(), options.seed_extend);
    case LaneEngineKind::kTwoStage:
      break;
  }
  return std::make_unique<align::SoftwareEngine>(pinned.index(),
                                                 options.aligner);
}

}  // namespace

struct AlignmentService::Lane {
  std::shared_ptr<const index::MappedIndex> pinned;
  std::unique_ptr<align::AlignmentEngine> engine;  ///< Outlives `service`.
  AlignmentService service;

  Lane(std::shared_ptr<const index::MappedIndex> idx,
       const MultiReferenceOptions& options)
      : pinned(std::move(idx)),
        engine(make_lane_engine(*pinned, options)),
        service(*engine, options.service) {}
};

AlignmentService::AlignmentService(const align::AlignmentEngine& engine,
                                   ServiceOptions options)
    : engine_(&engine), options_(options) {
  // Route the scheduler's sched.* series into the same registry unless the
  // caller wired a different one explicitly (mirrors StreamingPipeline).
  if (options_.metrics != nullptr &&
      options_.batching.parallel.metrics == nullptr) {
    options_.batching.parallel.metrics = options_.metrics;
  }
  metrics_ = ServeMetrics::install(options_.metrics);
  queue_ = std::make_unique<RequestQueue>(AdmissionControl(options_.admission),
                                          &counters_, metrics_,
                                          options_.tracer);
  batcher_ = std::make_unique<DynamicBatcher>(
      *engine_, *queue_, &counters_, metrics_, options_.batching,
      options_.tracer, options_.stall_probe);
}

AlignmentService::AlignmentService(IndexCache& cache,
                                   MultiReferenceOptions options)
    : options_(options.service),
      cache_(&cache),
      multi_options_(std::move(options)) {
  if (multi_options_.service.metrics != nullptr &&
      multi_options_.service.batching.parallel.metrics == nullptr) {
    multi_options_.service.batching.parallel.metrics =
        multi_options_.service.metrics;
  }
  // The routing layer shares the lanes' registry: fail-fast rejections show
  // up in serve.submitted / serve.rejected alongside lane traffic.
  metrics_ = ServeMetrics::install(multi_options_.service.metrics);
}

AlignmentService::~AlignmentService() { shutdown(ShutdownMode::kDrain); }

ResponseFuture AlignmentService::fail_fast(const AlignRequest& request,
                                           RequestStatus status,
                                           std::string reason) {
  counters_.submitted.fetch_add(1, std::memory_order_relaxed);
  metrics_.submitted.add(1);
  if (status == RequestStatus::kShutdown) {
    counters_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.rejected.fetch_add(1, std::memory_order_relaxed);
    metrics_.rejected.add(1);
  }
  std::promise<AlignResponse> promise;
  AlignResponse response;
  response.status = status;
  response.reason = std::move(reason);
  if (options_.tracer != nullptr) {
    // The decision was inline: submit and terminal collapse to one stamp.
    obs::RequestTrace trace;
    trace.id = options_.tracer->begin_request();
    trace.priority = static_cast<std::uint8_t>(request.priority);
    trace.reads = static_cast<std::uint32_t>(request.num_reads());
    if (request.deadline) {
      trace.deadline_ms = options_.tracer->to_ms(*request.deadline);
    }
    const double t = options_.tracer->now_ms();
    trace.mark(obs::RequestPhase::kSubmit, t);
    trace.mark(status == RequestStatus::kShutdown
                   ? obs::RequestPhase::kShutdown
                   : obs::RequestPhase::kReject,
               t);
    response.trace = trace;
    response.breakdown = obs::breakdown_of(trace);
    options_.tracer->record(trace);
  }
  promise.set_value(std::move(response));
  if (request.on_complete) request.on_complete();
  return promise.get_future();
}

namespace {

void add_counters(ServiceCounters::Snapshot& s,
                  const ServiceCounters::Snapshot& other) {
  s.submitted += other.submitted;
  s.admitted += other.admitted;
  s.rejected += other.rejected;
  s.rejected_shutdown += other.rejected_shutdown;
  s.expired += other.expired;
  s.aborted += other.aborted;
  s.completed += other.completed;
  s.batches += other.batches;
  s.batched_reads += other.batched_reads;
}

}  // namespace

/// Drains retired lanes (outside lanes_mu_ — draining serves requests) and
/// folds their final tallies into retired_tally_ so counters() never loses
/// history to an eviction.
void AlignmentService::retire_lanes(
    std::vector<std::shared_ptr<Lane>> retired, ShutdownMode mode) {
  if (retired.empty()) return;
  for (auto& old : retired) old->service.shutdown(mode);
  std::lock_guard<std::mutex> lock(lanes_mu_);
  for (auto& old : retired) {
    add_counters(retired_tally_, old->service.counters());
    retired_engine_stats_.merge(old->service.engine_stats());
  }
}

ResponseFuture AlignmentService::route_and_submit(AlignRequest request) {
  if (request.reference_id.empty()) {
    return fail_fast(request, RequestStatus::kRejected,
                     "missing reference_id (multi-reference service)");
  }
  if (!cache_->has_reference(request.reference_id)) {
    return fail_fast(request, RequestStatus::kRejected,
                     "unknown reference_id '" + request.reference_id + "'");
  }
  ResponseFuture future;
  std::vector<std::shared_ptr<Lane>> retired;
  {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    if (!accepting_) {
      return fail_fast(request, RequestStatus::kShutdown,
                       "service is shut down");
    }
    auto it = lanes_.find(request.reference_id);
    if (it == lanes_.end()) {
      std::shared_ptr<const index::MappedIndex> idx;
      try {
        idx = cache_->acquire(request.reference_id);
      } catch (const std::exception& e) {
        return fail_fast(request, RequestStatus::kRejected,
                         "reference '" + request.reference_id +
                             "' failed to load: " + e.what());
      }
      it = lanes_
               .emplace(request.reference_id,
                        std::make_shared<Lane>(std::move(idx), multi_options_))
               .first;
    }
    const std::string id = std::move(request.reference_id);
    // Routing is resolved; clear the id so the lane's single-engine service
    // (which rejects routed requests) accepts it. Submitting under lanes_mu_
    // is what makes reaping safe: a lane can only be retired when no submit
    // can still be heading for it. Admission is non-blocking, so this holds
    // the lock for O(enqueue).
    request.reference_id.clear();
    future = it->second->service.submit(std::move(request));
    // Retire lanes whose reference the cache evicted (LRU): drop them from
    // the routing table now, drain them after unlocking. Engine memory
    // thereby follows the cache's residency policy.
    for (auto li = lanes_.begin(); li != lanes_.end();) {
      if (li->first != id && !cache_->resident(li->first)) {
        retired.push_back(std::move(li->second));
        li = lanes_.erase(li);
      } else {
        ++li;
      }
    }
  }
  retire_lanes(std::move(retired), ShutdownMode::kDrain);
  return future;
}

ResponseFuture AlignmentService::submit(AlignRequest request) {
  if (cache_ == nullptr) {
    if (!request.reference_id.empty()) {
      return fail_fast(
          request, RequestStatus::kRejected,
          "reference routing unavailable: service has a fixed engine");
    }
    return queue_->submit(std::move(request));
  }
  return route_and_submit(std::move(request));
}

AlignResponse AlignmentService::align(AlignRequest request) {
  return submit(std::move(request)).get();
}

void AlignmentService::shutdown(ShutdownMode mode) {
  if (cache_ != nullptr) {
    std::vector<std::shared_ptr<Lane>> lanes;
    {
      std::lock_guard<std::mutex> lock(lanes_mu_);
      accepting_ = false;
      lanes.reserve(lanes_.size());
      for (auto& [id, lane] : lanes_) lanes.push_back(std::move(lane));
      lanes_.clear();
    }
    retire_lanes(std::move(lanes), mode);
    return;
  }
  queue_->close();
  if (mode == ShutdownMode::kAbort) {
    // Rip out whatever is still queued and fail it; the batcher may have
    // already gathered some of these into its current batch — those are
    // served normally (both outcomes are valid terminal states).
    auto leftovers = queue_->drain_now();
    const auto aborted_at = ServiceClock::now();
    for (auto& p : leftovers) {
      counters_.aborted.fetch_add(1, std::memory_order_relaxed);
      AlignResponse response;
      response.status = RequestStatus::kShutdown;
      response.reason = "service shut down before dispatch";
      response.queue_ms = std::chrono::duration<double, std::milli>(
                              aborted_at - p.admitted_at)
                              .count();
      response.latency_ms = response.queue_ms;
      if (p.trace.traced()) {
        p.trace.mark(obs::RequestPhase::kShutdown,
                     options_.tracer->to_ms(aborted_at));
        response.trace = p.trace;
        response.breakdown = obs::breakdown_of(p.trace);
        options_.tracer->record(p.trace);
      }
      p.promise.set_value(std::move(response));
      if (p.request.on_complete) p.request.on_complete();
    }
  }
  batcher_->join();
}

ServiceCounters::Snapshot AlignmentService::counters() const {
  auto s = counters_.snapshot();
  if (cache_ != nullptr) {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    add_counters(s, retired_tally_);
    for (const auto& [id, lane] : lanes_) {
      add_counters(s, lane->service.counters());
    }
  }
  return s;
}

std::size_t AlignmentService::queue_depth() const {
  if (cache_ == nullptr) return queue_->depth();
  std::lock_guard<std::mutex> lock(lanes_mu_);
  std::size_t depth = 0;
  for (const auto& [id, lane] : lanes_) depth += lane->service.queue_depth();
  return depth;
}

std::size_t AlignmentService::queued_reads() const {
  if (cache_ == nullptr) return queue_->queued_reads();
  std::lock_guard<std::mutex> lock(lanes_mu_);
  std::size_t reads = 0;
  for (const auto& [id, lane] : lanes_) reads += lane->service.queued_reads();
  return reads;
}

align::EngineStats AlignmentService::engine_stats() const {
  if (cache_ == nullptr) return batcher_->engine_stats();
  std::lock_guard<std::mutex> lock(lanes_mu_);
  align::EngineStats stats = retired_engine_stats_;
  for (const auto& [id, lane] : lanes_) {
    stats.merge(lane->service.engine_stats());
  }
  return stats;
}

std::vector<std::string> AlignmentService::active_lanes() const {
  std::vector<std::string> ids;
  std::lock_guard<std::mutex> lock(lanes_mu_);
  ids.reserve(lanes_.size());
  for (const auto& [id, lane] : lanes_) ids.push_back(id);
  return ids;
}

}  // namespace pim::serve
