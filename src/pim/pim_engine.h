// The PIM platform behind the unified AlignmentEngine interface (S37).
//
// The Digital Processing Unit of Fig. 3 only "adjusts the controller unit to
// govern timing and data flow" (Sec. IV-A); the algorithm is the software
// one. PimEngine therefore runs the same two-stage function as
// align::SoftwareEngine (align::detail::align_two_stage), over a backend
// that executes every backward-extension step as MEM/XNOR_Match/IM_ADD
// operations on the simulated SOT-MRAM sub-arrays and charges SA locates as
// memory reads — so batch front-ends (the chunked scheduler, SAM output,
// benches) swap backends without code changes, and the software/PIM
// bit-identical-results invariant is asserted at the engine seam
// (tests/test_engine.cpp).
//
// The engine reports thread_safe() == false: sub-array op/energy tallies
// are shared mutable state, so the scheduler runs PIM batches serially —
// which also matches the platform model (one DPU issuing commands).
#pragma once

#include "src/align/engine.h"
#include "src/pim/platform.h"

namespace pim::hw {

/// One batch's alignment outcomes plus the hardware tallies it cost.
struct HwBatchReport {
  align::EngineStats stats;                     ///< Stage outcomes, searches.
  PimAlignerPlatform::AggregateStats hardware;  ///< Op tallies over the batch.
  /// Wall-model time: serial sum of sub-array busy time. The chip model
  /// converts this to throughput under the pipeline/parallelism model.
  double busy_ns = 0.0;
  double energy_pj = 0.0;
};

class PimEngine final : public align::AlignmentEngine {
 public:
  explicit PimEngine(PimAlignerPlatform& platform,
                     align::AlignerOptions options = {})
      : platform_(&platform), options_(options) {}

  std::string_view name() const override { return "pim-mram"; }
  bool thread_safe() const override { return false; }
  void align_range(const align::ReadBatch& batch, std::size_t begin,
                   std::size_t end, align::BatchResult& out) const override;

  /// Align a whole batch and report alignment outcomes plus the hardware
  /// op/energy tallies (resets the platform's stats at entry so the report
  /// covers exactly this batch).
  HwBatchReport run(const align::ReadBatch& batch,
                    align::BatchResult& out) const;

  PimAlignerPlatform& platform() const { return *platform_; }
  const align::AlignerOptions& options() const { return options_; }

 private:
  PimAlignerPlatform* platform_;
  align::AlignerOptions options_;
};

}  // namespace pim::hw
