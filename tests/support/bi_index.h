// Bidirectional FM-index: the tests' D-array oracle (Section IV-A's
// "bi-directional backtracking" control logic).
//
// Pairing the forward index with an index of the *reversed* reference lets
// the DPU compute the D-array lower bound in O(m) with one forward sweep —
// occurrence of read[j..i] in S equals occurrence of its reverse in
// reverse(S), and extending i by one is a single backward-extension step on
// the reverse index. It is the same trick BWA uses.
//
// The engines do not use it: a second FmIndex::build in every set-up would
// double index build time and index memory. They compute D on the forward
// index alone by galloping each chunk's end (compute_lower_bound_d, under
// 3m LFMs for a read that occurs whole). BiFmIndex is the independent
// computation the tests hold that D against, so it is built only into the
// test-support library.
#pragma once

#include <cstdint>
#include <vector>

#include "src/genome/packed_sequence.h"
#include "src/index/fm_index.h"

namespace pim::align {

class BiFmIndex {
 public:
  BiFmIndex() = default;

  /// Builds both directions. Costs twice the single-index build.
  static BiFmIndex build(const genome::PackedSequence& reference,
                         const index::FmIndexConfig& config = {});

  const index::FmIndex& forward() const { return forward_; }
  const index::FmIndex& reverse() const { return reverse_; }

  /// O(m) D-array: D[i] = lower bound on the differences needed to align
  /// R[0..i]. Identical values to compute_lower_bound_d (tested), one
  /// reverse-index extension per read base.
  std::vector<std::uint32_t> compute_lower_bound_d(
      const std::vector<genome::Base>& read) const;

 private:
  index::FmIndex forward_;
  index::FmIndex reverse_;
};

}  // namespace pim::align
