// Shared value types of the alignment layer: the search cores' results and
// options, the per-read outcome every engine produces, and the per-stage
// counters the engines accumulate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/index/fm_index.h"

namespace pim::align {

struct ExactResult {
  index::SaInterval interval;   ///< Final interval; valid() <=> read found.
  std::uint32_t steps = 0;      ///< Backward-extension steps executed.
  bool found() const { return interval.valid(); }
  std::uint64_t occurrence_count() const { return interval.count(); }
};

enum class EditMode {
  kSubstitutionsOnly,  ///< Mismatches only (Algorithm 2's main loop).
  kFullEdit,           ///< Substitutions + insertions + deletions.
};

struct InexactOptions {
  std::uint32_t max_diffs = 2;      ///< z; the paper evaluates reads with <=2.
  EditMode mode = EditMode::kSubstitutionsOnly;
  /// Occurrence lower-bound pruning (BWA's calculate-D). Cuts search paths
  /// that provably cannot finish within z; never changes the result set.
  bool use_lower_bound_pruning = true;
  /// Hard cap on explored search states, a defence against pathological
  /// references; 0 = unlimited. When hit, the result is marked truncated.
  std::uint64_t max_states = 0;
};

struct InexactHit {
  index::SaInterval interval;
  std::uint32_t diffs = 0;  ///< Differences used (minimum over paths).
};

struct InexactResult {
  std::vector<InexactHit> hits;  ///< Distinct intervals, ascending by low.
  std::uint64_t states_explored = 0;
  bool truncated = false;

  bool found() const { return !hits.empty(); }
  std::uint32_t best_diffs() const;
  std::uint64_t total_occurrences() const;
};

enum class Strand : std::uint8_t { kForward, kReverseComplement };

struct AlignmentHit {
  std::uint64_t position = 0;  ///< Start in the reference (forward coords).
  std::uint32_t diffs = 0;
  Strand strand = Strand::kForward;
};

enum class AlignmentStage : std::uint8_t {
  kUnaligned,  ///< Neither stage found a hit within the difference budget.
  kExact,      ///< Stage one.
  kInexact,    ///< Stage two.
};

/// One read's outcome as a standalone value: the per-read type of serving
/// and wire responses, materialized from a BatchResult with result(i).
struct AlignmentResult {
  AlignmentStage stage = AlignmentStage::kUnaligned;
  std::vector<AlignmentHit> hits;  ///< Sorted by position.
  bool aligned() const { return stage != AlignmentStage::kUnaligned; }
  /// The best (fewest-diff, leftmost) hit, if any.
  std::optional<AlignmentHit> best() const;
};

struct AlignerOptions {
  InexactOptions inexact;       ///< Stage-two budget (z, edit mode, pruning).
  bool try_reverse_complement = true;
  /// Cap on reported hits per read (a read landing in a huge repeat family
  /// can hit thousands of loci); 0 = unlimited.
  std::size_t max_hits = 64;
};

/// Per-stage engine statistics: stage outcomes, search-invocation counters,
/// wall time, and result-arena allocation. Merges associatively, so chunked
/// parallel workers accumulate privately and combine at join.
struct EngineStats {
  std::uint64_t reads_total = 0;
  std::uint64_t reads_exact = 0;
  std::uint64_t reads_inexact = 0;
  std::uint64_t reads_unaligned = 0;
  std::uint64_t hits_total = 0;
  /// Strand searches actually issued per stage: the reverse complement is
  /// skipped when the forward strand already filled max_hits, and stage two
  /// only runs for stage-one misses.
  std::uint64_t exact_searches = 0;
  std::uint64_t inexact_searches = 0;
  /// Stage-one strand searches finished on a one-row interval (the rest of
  /// the read verified against the reference, or walked to the end on the
  /// PIM backend) rather than by backward search alone. Backend-independent.
  std::uint64_t exact_verified = 0;
  std::uint64_t batches = 0;
  double wall_ms = 0.0;            ///< align_batch / scheduler wall time.
  std::uint64_t result_bytes = 0;  ///< BatchResult arena footprint.
  /// Chunks delivered through the chunk seam (S39): every
  /// align_batch_chunked run counts its in-order deliveries here (one per
  /// shard on a ShardedEngine). 0 on non-chunked paths.
  std::uint64_t chunks = 0;
  /// Scheduler stall time (S39/S40): worker wait on the bounded start
  /// window. Execution-shape dependent (threads/chunking), unlike the
  /// workload counters above — equivalence tests must not compare it.
  double stall_ms = 0.0;

  double exact_fraction() const {
    return reads_total ? static_cast<double>(reads_exact) /
                             static_cast<double>(reads_total)
                       : 0.0;
  }
  void merge(const EngineStats& other);
};

}  // namespace pim::align
