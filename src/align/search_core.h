// Backend-generic search cores.
//
// Algorithm 1 (exact backward search) and Algorithm 2 (inexact search with
// backtracking) are written once here, templated on a Backend that provides
// the LFM-driven interval primitives. Two backends exist:
//   * index::FmIndex              — the pure-software path;
//   * pim::PimSearchBackend       — LFM executed as MEM/XNOR_Match/IM_ADD
//                                   operations on simulated SOT-MRAM
//                                   sub-arrays, with cycle/energy accounting.
// Because both instantiate the same core, the platform's alignment results
// are bit-identical to software by construction — the property the paper's
// "reconstructed algorithm" claims and our integration tests verify. The
// two-stage pipeline around the cores (align_two_stage) is written once
// here too, so SoftwareEngine and hw::PimEngine differ only in the backend.
//
// Backend requirements:
//   index::SaInterval whole_interval() const;
//   index::SaInterval extend(const index::SaInterval&, genome::Base) const;
//   std::array<index::SaInterval, genome::kNumBases>
//       extend4(const index::SaInterval&) const;  // [b] == extend(iv, b)
//   void locate_all_into(const index::SaInterval&,
//                        std::vector<std::uint64_t>& out,
//                        std::size_t limit) const;
//       // SA locate: the interval's `limit` smallest positions (0 = all),
//       // ascending.
//   void finish_one_row(const index::SaInterval& row,
//                       std::span<const genome::Base> prefix,
//                       std::vector<std::uint64_t>& out) const;
//       // out = the positions of prefix + (the one row's pattern): what
//       // extending `row` through `prefix` and locating would give.
//       // FmIndex verifies against its packed reference; the PIM backend
//       // runs Algorithm 1's tail (detail::exact_tail).
//   index::SearchStart exact_start(std::span<const genome::Base> read) const;
//       // where stage one starts: the interval after the read's last
//       // `consumed` bases (consumed < m), and for an empty one whether the
//       // walk to it passed a one-row interval. FmIndex reads its k-mer
//       // table (m > k); the PIM backend returns the whole interval with
//       // nothing consumed, so the platform issues all of Algorithm 1.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "src/align/types.h"
#include "src/genome/alphabet.h"
#include "src/index/fm_index.h"

namespace pim::align {

template <typename Backend>
ExactResult exact_search_core(const Backend& backend,
                              const std::vector<genome::Base>& read) {
  ExactResult result;
  result.interval = backend.whole_interval();
  if (read.empty()) return result;
  for (auto it = read.rbegin(); it != read.rend(); ++it) {
    result.interval = backend.extend(result.interval, *it);
    ++result.steps;
    if (!result.interval.valid()) break;  // low >= high: no match possible
  }
  return result;
}

/// Stage one: Algorithm 1 plus SA locate, finished early. Backward search
/// starts where the backend says (exact_start: the k-mer table's interval,
/// k bases in, or the whole interval) and runs until the interval holds one
/// row while rest = m - j bases are still unmatched; the backend then
/// finishes that row (finish_one_row), which gives the same positions as
/// walking on: every occurrence of the read at p puts its matched j-base
/// suffix at p + rest, the one row. The sentinel's row never starts with a
/// base, so the row is a real suffix for j >= 1. `positions` receives the
/// sorted start positions. Returns true when the search was finished on a
/// one-row interval, or when a table start is empty but its walk passed a
/// one-row interval: the step-by-step walk would have finished there.
/// A nonzero `limit` keeps only the `limit` smallest positions.
template <typename Backend>
bool exact_locate_core(const Backend& backend,
                       const std::vector<genome::Base>& read,
                       std::vector<std::uint64_t>& positions,
                       std::size_t limit = 0) {
  const index::SearchStart start = backend.exact_start(read);
  index::SaInterval interval = start.interval;
  std::size_t rest = read.size() - start.consumed;
  if (start.consumed > 0) {
    if (!interval.valid()) {
      positions.clear();
      return start.passed_one_row;
    }
    if (interval.count() == 1) {
      backend.finish_one_row(
          interval, std::span<const genome::Base>(read.data(), rest),
          positions);
      return true;
    }
  }
  while (rest-- > 0) {
    interval = backend.extend(interval, read[rest]);
    if (!interval.valid()) {
      positions.clear();
      return false;
    }
    if (rest > 0 && interval.count() == 1) {
      backend.finish_one_row(
          interval, std::span<const genome::Base>(read.data(), rest),
          positions);
      return true;
    }
  }
  backend.locate_all_into(interval, positions, limit);
  return false;
}

namespace detail {

/// Algorithm 1's tail from an interval with `prefix` still unmatched: the
/// remaining backward extensions, then SA locate into `out` (empty when the
/// interval collapses). A backend without the reference finishes a one-row
/// interval with this.
template <typename Backend>
void exact_tail(const Backend& backend, index::SaInterval interval,
                std::span<const genome::Base> prefix,
                std::vector<std::uint64_t>& out) {
  for (std::size_t k = prefix.size(); k-- > 0;) {
    interval = backend.extend(interval, prefix[k]);
    if (!interval.valid()) {
      out.clear();
      return;
    }
  }
  backend.locate_all_into(interval, out, 0);
}

/// Does pattern[begin..end] (inclusive) occur exactly?
template <typename Backend>
bool chunk_occurs(const Backend& backend,
                  const std::vector<genome::Base>& pattern, std::size_t begin,
                  std::size_t end) {
  index::SaInterval interval = backend.whole_interval();
  for (std::size_t k = end + 1; k-- > begin;) {
    interval = backend.extend(interval, pattern[k]);
    if (!interval.valid()) return false;
    if (k == begin) break;
  }
  return interval.valid();
}

}  // namespace detail

/// BWA's D array: D[i] = lower bound on differences needed to align R[0..i]
/// (number of disjoint chunks of R[0..i] absent from the reference).
///
/// Greedy chunking: from chunk start b, the chunk ends at the first i where
/// R[b..i] is absent; D steps up there and the next chunk starts at i + 1.
/// "R[b..i] occurs" is monotone in i, so the first absent i is found by
/// galloping the probe length (1, 2, 4, ..., clamped to the read end) and
/// then bisecting between the longest present and the shortest absent
/// length. That is O(m log m) LFMs worst case and under 3m when the read
/// occurs whole, where restarting the search at every i costs O(m^2); the
/// chunk boundaries, and so D, are the same.
template <typename Backend>
std::vector<std::uint32_t> compute_lower_bound_d_core(
    const Backend& backend, const std::vector<genome::Base>& read) {
  const std::size_t m = read.size();
  std::vector<std::uint32_t> d(m, 0);
  std::uint32_t z = 0;
  std::size_t begin = 0;
  while (begin < m) {
    const std::size_t rest = m - begin;
    // Invariant: a chunk of length `present` occurs; one of length `absent`
    // does not (absent == rest + 1 while no absent length is known).
    std::size_t present = 0, absent = rest + 1;
    for (std::size_t len = 1; absent == rest + 1; len *= 2) {
      len = std::min(len, rest);
      if (detail::chunk_occurs(backend, read, begin, begin + len - 1)) {
        present = len;
        if (len == rest) break;
      } else {
        absent = len;
      }
    }
    while (absent - present > 1) {
      const std::size_t mid = present + (absent - present) / 2;
      if (detail::chunk_occurs(backend, read, begin, begin + mid - 1)) {
        present = mid;
      } else {
        absent = mid;
      }
    }
    std::fill(d.begin() + static_cast<std::ptrdiff_t>(begin),
              d.begin() + static_cast<std::ptrdiff_t>(begin + present), z);
    if (present == rest) break;
    // R[begin .. begin + present] is the first absent chunk.
    d[begin + present] = ++z;
    begin += present + 1;
  }
  return d;
}

/// Algorithm 2's recursive searcher, generic over the LFM backend.
template <typename Backend>
class InexactSearchCore {
 public:
  InexactSearchCore(const Backend& backend,
                    const std::vector<genome::Base>& read,
                    const InexactOptions& options)
      : backend_(backend), read_(read), options_(options) {
    if (options_.use_lower_bound_pruning && !read.empty()) {
      d_ = compute_lower_bound_d_core(backend, read);
    }
  }

  /// Variant with an externally supplied D-array, for a caller that
  /// computes (and times) D on its own. `precomputed_d` must be a valid
  /// lower bound; it is used regardless of options.use_lower_bound_pruning.
  InexactSearchCore(const Backend& backend,
                    const std::vector<genome::Base>& read,
                    const InexactOptions& options,
                    std::vector<std::uint32_t> precomputed_d)
      : backend_(backend),
        read_(read),
        options_(options),
        d_(std::move(precomputed_d)) {}

  InexactResult run() {
    recur(static_cast<std::int64_t>(read_.size()) - 1, 0,
          backend_.whole_interval());
    InexactResult result;
    result.states_explored = states_;
    result.truncated = truncated_;
    result.hits.reserve(found_.size());
    for (const auto& [bounds, diffs] : found_) {
      result.hits.push_back(
          InexactHit{index::SaInterval{bounds.first, bounds.second}, diffs});
    }
    return result;
  }

 private:
  void record(const index::SaInterval& interval, std::uint32_t diffs) {
    const auto key = std::make_pair(interval.low, interval.high);
    const auto it = found_.find(key);
    if (it == found_.end()) {
      found_.emplace(key, diffs);
    } else {
      it->second = std::min(it->second, diffs);
    }
  }

  bool budget_exhausted() {
    if (options_.max_states != 0 && states_ >= options_.max_states) {
      truncated_ = true;
      return true;
    }
    return false;
  }

  // i = next read character to consume (right-to-left); i < 0 => whole read
  // matched, record the interval.
  void recur(std::int64_t i, std::uint32_t diffs, index::SaInterval interval) {
    ++states_;
    if (budget_exhausted()) return;
    if (i >= 0 && !d_.empty() &&
        diffs + d_[static_cast<std::size_t>(i)] > options_.max_diffs) {
      return;  // cheapest completion already over budget
    }
    if (i < 0) {
      record(interval, diffs);
      return;
    }

    const bool can_spend = diffs < options_.max_diffs;

    if (options_.mode == EditMode::kFullEdit && can_spend) {
      // Insertion in the read: skip R[i] without consuming a reference base.
      recur(i - 1, diffs + 1, interval);
    }

    const auto children = backend_.extend4(interval);
    for (const auto b : genome::kAllBases) {
      const index::SaInterval& next = children[static_cast<std::size_t>(b)];
      if (!next.valid()) continue;
      if (options_.mode == EditMode::kFullEdit && can_spend) {
        // Deletion from the read: consume a reference base, stay at R[i].
        recur(i, diffs + 1, next);
      }
      if (b == read_[static_cast<std::size_t>(i)]) {
        recur(i - 1, diffs, next);  // match continuation (Alg. 2 line 16)
      } else if (can_spend) {
        recur(i - 1, diffs + 1, next);  // mismatch (Alg. 2 line 18)
      }
    }
  }

  const Backend& backend_;
  const std::vector<genome::Base>& read_;
  const InexactOptions& options_;
  std::vector<std::uint32_t> d_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> found_;
  std::uint64_t states_ = 0;
  bool truncated_ = false;
};

template <typename Backend>
InexactResult inexact_search_core(const Backend& backend,
                                  const std::vector<genome::Base>& read,
                                  const InexactOptions& options) {
  if (read.empty()) {
    InexactResult result;
    result.hits.push_back(InexactHit{backend.whole_interval(), 0});
    return result;
  }
  InexactSearchCore<Backend> core(backend, read, options);
  return core.run();
}

/// Algorithm 2 plus SA locate: every text position of every hit interval,
/// paired with the minimum diff count at that position, ascending by
/// position; a nonzero `limit` keeps the `limit` smallest positions.
/// `positions` is locate scratch.
///
/// Cutting each interval at `limit` is exact. A position's rank within one
/// interval is never above its rank in the union of the intervals, so each
/// of the union's `limit` smallest positions survives the cut of every
/// interval that holds it, and so keeps its minimum diffs. A position past
/// the union's `limit`-th may survive some intervals' cuts with too large
/// a diff count; the final cut drops it.
template <typename Backend>
std::vector<std::pair<std::uint64_t, std::uint32_t>> inexact_locate_core(
    const Backend& backend, const std::vector<genome::Base>& read,
    const InexactOptions& options, std::vector<std::uint64_t>& positions,
    std::size_t limit = 0) {
  const InexactResult result = inexact_search_core(backend, read, options);
  std::map<std::uint64_t, std::uint32_t> by_position;
  for (const auto& hit : result.hits) {
    backend.locate_all_into(hit.interval, positions, limit);
    for (const auto pos : positions) {
      const auto [it, fresh] = by_position.emplace(pos, hit.diffs);
      if (!fresh) it->second = std::min(it->second, hit.diffs);
    }
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> located(
      by_position.begin(), by_position.end());
  if (limit != 0 && located.size() > limit) located.resize(limit);
  return located;
}

namespace detail {

/// Reusable per-worker buffers for the two-stage pipeline: the unpacked
/// read, its reverse complement, the read's hit set, and the SA-locate
/// output. One set per worker replaces four heap allocations per read.
struct TwoStageScratch {
  std::vector<genome::Base> read;
  std::vector<genome::Base> rc;
  std::vector<AlignmentHit> hits;
  std::vector<std::uint64_t> positions;
};

/// The two-stage pipeline (Section III), the one place that decides stage
/// order, strand order, the max_hits cut, hit ordering and search counting.
/// Stage one searches the read, then (unless the forward strand already
/// filled max_hits) its reverse complement, exactly, with
/// exact_locate_core; reads without an exact hit go through stage two's
/// inexact search in the same strand order. Each strand's locate keeps only
/// the room left under max_hits, its smallest positions: the hits a
/// locate-all-then-cut would keep. On return scratch.hits holds
/// the read's hits sorted by position; `stats` (may be null) counts the
/// strand searches actually issued, and the stage-one searches finished on
/// a one-row interval (exact_verified). An empty read is unaligned without
/// any search: the empty pattern "matches" every BWT row, sentinel
/// included, which is no placement.
template <typename Backend>
AlignmentStage align_two_stage(const Backend& backend,
                               const AlignerOptions& options,
                               const std::vector<genome::Base>& read,
                               TwoStageScratch& scratch, EngineStats* stats) {
  auto& hits = scratch.hits;
  hits.clear();
  if (read.empty()) return AlignmentStage::kUnaligned;
  const auto full = [&] {
    return options.max_hits != 0 && hits.size() >= options.max_hits;
  };
  // Called only while !full(), so nonzero under a nonzero max_hits.
  const auto room = [&]() -> std::size_t {
    return options.max_hits == 0 ? 0 : options.max_hits - hits.size();
  };
  const auto exact = [&](const std::vector<genome::Base>& oriented,
                         Strand strand) {
    const bool verified =
        exact_locate_core(backend, oriented, scratch.positions, room());
    if (stats != nullptr) {
      ++stats->exact_searches;
      if (verified) ++stats->exact_verified;
    }
    for (const auto pos : scratch.positions) {
      hits.push_back(AlignmentHit{pos, 0, strand});
    }
  };
  const auto inexact = [&](const std::vector<genome::Base>& oriented,
                           Strand strand) {
    if (stats != nullptr) ++stats->inexact_searches;
    for (const auto& [pos, diffs] :
         inexact_locate_core(backend, oriented, options.inexact,
                             scratch.positions, room())) {
      hits.push_back(AlignmentHit{pos, diffs, strand});
    }
  };

  AlignmentStage stage = AlignmentStage::kUnaligned;
  exact(read, Strand::kForward);
  if (options.try_reverse_complement && !full()) {
    genome::reverse_complement_into(read, scratch.rc);
    exact(scratch.rc, Strand::kReverseComplement);
  }
  if (!hits.empty()) {
    stage = AlignmentStage::kExact;
  } else if (options.inexact.max_diffs > 0) {
    // No exact hit, so stage one searched (and built) scratch.rc.
    inexact(read, Strand::kForward);
    if (options.try_reverse_complement && !full()) {
      inexact(scratch.rc, Strand::kReverseComplement);
    }
    if (!hits.empty()) stage = AlignmentStage::kInexact;
  }

  std::sort(hits.begin(), hits.end(),
            [](const AlignmentHit& a, const AlignmentHit& b) {
              if (a.position != b.position) return a.position < b.position;
              return a.diffs < b.diffs;
            });
  return stage;
}

}  // namespace detail

}  // namespace pim::align
