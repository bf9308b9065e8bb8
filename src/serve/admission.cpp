#include "src/serve/admission.h"

#include <algorithm>

namespace pim::serve {

std::optional<std::string> AdmissionControl::vet(
    const QueueOccupancy& occupancy, const AlignRequest& request) const {
  const std::size_t reads = request.num_reads();
  const auto cls = static_cast<std::size_t>(request.priority);
  const char* cls_name = to_string(request.priority);

  // The tightest read bound that applies to this request: a request larger
  // than it could never be admitted, even against an empty queue, so it is
  // rejected outright.
  std::size_t cap = options_.max_queued_reads;
  const std::size_t class_cap = options_.max_class_reads[cls];
  if (class_cap > 0 && (cap == 0 || class_cap < cap)) cap = class_cap;
  if (cap > 0 && reads > cap) {
    return "request too large: " + std::to_string(reads) + " reads > " +
           std::to_string(cap) + " (max queued reads for " +
           std::string(cls_name) + ")";
  }
  if (options_.max_class_requests[cls] > 0 &&
      occupancy.class_requests[cls] >= options_.max_class_requests[cls]) {
    return std::string(cls_name) + " queue full: " +
           std::to_string(occupancy.class_requests[cls]) +
           " requests queued (max_class_requests " +
           std::to_string(options_.max_class_requests[cls]) + ")";
  }
  if (options_.max_class_reads[cls] > 0 &&
      occupancy.class_reads[cls] + reads > options_.max_class_reads[cls]) {
    return std::string(cls_name) + " queue full: " +
           std::to_string(occupancy.class_reads[cls]) + " reads queued + " +
           std::to_string(reads) + " > max_class_reads " +
           std::to_string(options_.max_class_reads[cls]);
  }
  if (options_.max_queued_requests > 0 &&
      occupancy.requests >= options_.max_queued_requests) {
    return "queue full: " + std::to_string(occupancy.requests) +
           " requests queued (max_queued_requests " +
           std::to_string(options_.max_queued_requests) + ")";
  }
  if (options_.max_queued_reads > 0 &&
      occupancy.reads + reads > options_.max_queued_reads) {
    return "queue full: " + std::to_string(occupancy.reads) +
           " reads queued + " + std::to_string(reads) +
           " > max_queued_reads " + std::to_string(options_.max_queued_reads);
  }
  return std::nullopt;
}

}  // namespace pim::serve
