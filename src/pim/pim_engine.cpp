#include "src/pim/pim_engine.h"

#include "src/align/search_core.h"

namespace pim::hw {

void PimEngine::align_range(const align::ReadBatch& batch, std::size_t begin,
                            std::size_t end, align::BatchResult& out) const {
  const PimSearchBackend backend(platform_);
  align::detail::TwoStageScratch scratch;
  for (std::size_t i = begin; i < end; ++i) {
    batch.read(i).unpack_into(scratch.read);
    const align::AlignmentStage stage = align::detail::align_two_stage(
        backend, options_, scratch.read, scratch, &out.stats());
    out.add_read(stage, scratch.hits);
    // Publish the hardware tallies at every read boundary (S43): this
    // thread is the platform's single driver, so the seqlock store is
    // race-free, and a concurrent PimChipFleet::publish_metrics scrape
    // sees tallies at most one read stale instead of racing the raw
    // per-tile counters.
    platform_->publish_stats_snapshot();
  }
}

HwBatchReport PimEngine::run(const align::ReadBatch& batch,
                             align::BatchResult& out) const {
  platform_->reset_stats();
  align_batch(batch, out);
  HwBatchReport report;
  report.stats = out.stats();
  report.hardware = platform_->aggregate_stats();
  report.busy_ns = report.hardware.ops.busy_ns;
  report.energy_pj = report.hardware.ops.energy_pj;
  return report;
}

}  // namespace pim::hw
