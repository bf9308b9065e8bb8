// Admission control (S41): bounded queue depth with reject-with-reason
// load shedding.
//
// A serving queue without a bound converts overload into unbounded latency
// for everyone; with one, excess offered load is shed at the door with an
// actionable reason and admitted requests keep a bounded worst-case wait
// (the queue can hold at most max_queued_reads of work in front of any
// admitted request). S46 adds per-class quotas on top of the shared
// bounds: a cohort backfill hammering the batch class can no longer starve
// interactive admissions by filling the shared budget — each class also
// has its own ceiling, and the reject reason names the class that hit it.
// The policy is deliberately a pure function of queue occupancy + the
// candidate request — it holds no lock and mutates no state, so
// RequestQueue can consult it under its own mutex and the decision is
// exact, not racy.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "src/serve/request.h"

namespace pim::serve {

/// Exact queue occupancy at the admission decision, split by priority
/// class. Built by RequestQueue under its lock.
struct QueueOccupancy {
  std::size_t requests = 0;  ///< Total queued requests (all classes).
  std::size_t reads = 0;     ///< Total queued reads (all classes).
  std::size_t class_requests[kNumPriorities] = {};
  std::size_t class_reads[kNumPriorities] = {};
};

struct AdmissionOptions {
  /// Maximum queued (admitted, not yet dispatched) requests. 0 = unlimited.
  std::size_t max_queued_requests = 1024;
  /// Maximum queued reads across all queued requests — the bound that
  /// actually caps queueing delay, since service time scales with reads.
  /// 0 = unlimited.
  std::size_t max_queued_reads = 65536;
  /// Per-class quotas, indexed by RequestPriority ordinal (0 =
  /// interactive, 1 = batch). 0 = the class is bounded only by the shared
  /// limits above. Both the shared and the class bound must pass for a
  /// request to be admitted.
  std::size_t max_class_requests[kNumPriorities] = {};
  std::size_t max_class_reads[kNumPriorities] = {};
};

class AdmissionControl {
 public:
  explicit AdmissionControl(AdmissionOptions options = {})
      : options_(options) {}

  /// Admission verdict for `request` against the current queue occupancy:
  /// std::nullopt admits; otherwise the returned string is the rejection
  /// reason surfaced in AlignResponse::reason (naming the priority class
  /// when a class quota was the limit that fired). Called by RequestQueue
  /// under its lock.
  std::optional<std::string> vet(const QueueOccupancy& occupancy,
                                 const AlignRequest& request) const;

  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
};

}  // namespace pim::serve
