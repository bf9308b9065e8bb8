#include "src/align/wfa.h"

#include <algorithm>
#include <cstddef>
#include <limits>

namespace pim::align {

WfaStats& WfaStats::operator+=(const WfaStats& other) {
  wavefronts += other.wavefronts;
  cells += other.cells;
  compare_bases += other.compare_bases;
  max_score = std::max(max_score, other.max_score);
  return *this;
}

namespace {

constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::min() / 4;

/// One wavefront: furthest-reaching text offsets per diagonal k in
/// [lo, hi]. Diagonal k = text_pos - pattern_pos; offset stores text_pos.
struct Wave {
  std::int64_t lo = 0, hi = -1;  ///< Empty when lo > hi.
  std::vector<std::int64_t> off;

  bool empty() const { return lo > hi; }
  bool has(std::int64_t k) const { return k >= lo && k <= hi; }
  std::int64_t at(std::int64_t k) const {
    return has(k) ? off[static_cast<std::size_t>(k - lo)] : kNone;
  }
  std::int64_t& slot(std::int64_t k) {
    return off[static_cast<std::size_t>(k - lo)];
  }
  void init(std::int64_t new_lo, std::int64_t new_hi) {
    lo = new_lo;
    hi = new_hi;
    off.assign(lo <= hi ? static_cast<std::size_t>(hi - lo + 1) : 0, kNone);
  }
};

struct Frontier {
  std::vector<Wave> m, i, d;  ///< Indexed by score.
};

void append_op(std::vector<CigarEntry>& cigar, CigarOp op,
               std::uint32_t length = 1) {
  if (length == 0) return;
  if (!cigar.empty() && cigar.back().op == op) {
    cigar.back().length += length;
  } else {
    cigar.push_back(CigarEntry{op, length});
  }
}

}  // namespace

WfaResult wfa_align(const std::vector<genome::Base>& text,
                    const std::vector<genome::Base>& pattern,
                    const WfaOptions& options) {
  const auto n = static_cast<std::int64_t>(text.size());
  const auto m = static_cast<std::int64_t>(pattern.size());
  const std::int64_t x = options.penalties.mismatch;
  const std::int64_t oe =
      static_cast<std::int64_t>(options.penalties.gap_open) +
      options.penalties.gap_extend;
  const std::int64_t e = options.penalties.gap_extend;

  WfaResult result;
  if (m == 0) {
    result.aligned = true;
    return result;
  }

  const std::uint32_t cutoff =
      options.max_score != 0
          ? options.max_score
          : options.score_cutoff_base +
                static_cast<std::uint32_t>(options.score_cutoff_per_base *
                                           static_cast<double>(m));

  // Free leading text: every diagonal in [0, n - m] is a zero-cost start
  // (the window may begin well before the alignment). Diagonals outside
  // [-m, n] are unreachable.
  const std::int64_t init_lo = 0;
  const std::int64_t init_hi = std::max<std::int64_t>(0, n - m);
  const std::int64_t k_min = -m;
  const std::int64_t k_max = n;

  Frontier f;
  const std::size_t depth = static_cast<std::size_t>(cutoff) + 1;
  f.m.resize(depth);
  f.i.resize(depth);
  f.d.resize(depth);

  auto valid = [&](std::int64_t h, std::int64_t k) {
    return h != kNone && h >= 0 && h <= n && h - k >= 0 && h - k <= m;
  };

  // Extend matches along every diagonal of `wave` (free), tallying the
  // compares; returns the diagonal that completed the pattern, if any.
  auto extend_and_check = [&](Wave& wave) -> std::int64_t {
    std::int64_t done_k = kNone;
    for (std::int64_t k = wave.lo; k <= wave.hi; ++k) {
      std::int64_t h = wave.at(k);
      if (h == kNone || !valid(h, k)) continue;
      std::int64_t v = h - k;
      while (h < n && v < m) {
        ++result.stats.compare_bases;
        if (text[static_cast<std::size_t>(h)] !=
            pattern[static_cast<std::size_t>(v)]) {
          break;
        }
        ++h;
        ++v;
      }
      wave.slot(k) = h;
      if (v == m && done_k == kNone) done_k = k;
    }
    return done_k;
  };

  // Score 0: skip any amount of leading text, then extend.
  Wave& m0 = f.m[0];
  m0.init(init_lo, init_hi);
  for (std::int64_t k = m0.lo; k <= m0.hi; ++k) m0.slot(k) = k;
  ++result.stats.wavefronts;
  result.stats.cells += m0.off.size();

  std::uint32_t s = 0;
  std::int64_t end_k = extend_and_check(m0);
  std::uint32_t last_nonempty = 0;
  const std::int64_t max_step = std::max(x, oe);

  while (end_k == kNone) {
    if (s >= cutoff) {
      result.stats.max_score = s;
      return result;  // gave up: not aligned within budget
    }
    ++s;
    if (static_cast<std::int64_t>(s) - last_nonempty > max_step) {
      result.stats.max_score = s;
      return result;  // every source wavefront is empty: dead end
    }

    const Wave* m_open = s >= oe ? &f.m[s - oe] : nullptr;
    const Wave* m_mis = s >= x ? &f.m[s - x] : nullptr;
    const Wave* i_ext = s >= e ? &f.i[s - e] : nullptr;
    const Wave* d_ext = s >= e ? &f.d[s - e] : nullptr;

    // Insertion wavefront (consumes pattern; k shifts down, offset fixed).
    Wave& wi = f.i[s];
    {
      std::int64_t lo = std::numeric_limits<std::int64_t>::max();
      std::int64_t hi = std::numeric_limits<std::int64_t>::min();
      if (m_open != nullptr && !m_open->empty()) {
        lo = std::min(lo, m_open->lo - 1);
        hi = std::max(hi, m_open->hi - 1);
      }
      if (i_ext != nullptr && !i_ext->empty()) {
        lo = std::min(lo, i_ext->lo - 1);
        hi = std::max(hi, i_ext->hi - 1);
      }
      lo = std::max(lo, k_min);
      hi = std::min(hi, k_max);
      if (lo <= hi) {
        wi.init(lo, hi);
        for (std::int64_t k = lo; k <= hi; ++k) {
          const std::int64_t h =
              std::max(m_open != nullptr ? m_open->at(k + 1) : kNone,
                       i_ext != nullptr ? i_ext->at(k + 1) : kNone);
          wi.slot(k) = valid(h, k) ? h : kNone;
        }
        ++result.stats.wavefronts;
        result.stats.cells += wi.off.size();
      }
    }

    // Deletion wavefront (consumes text; k shifts up, offset advances).
    Wave& wd = f.d[s];
    {
      std::int64_t lo = std::numeric_limits<std::int64_t>::max();
      std::int64_t hi = std::numeric_limits<std::int64_t>::min();
      if (m_open != nullptr && !m_open->empty()) {
        lo = std::min(lo, m_open->lo + 1);
        hi = std::max(hi, m_open->hi + 1);
      }
      if (d_ext != nullptr && !d_ext->empty()) {
        lo = std::min(lo, d_ext->lo + 1);
        hi = std::max(hi, d_ext->hi + 1);
      }
      lo = std::max(lo, k_min);
      hi = std::min(hi, k_max);
      if (lo <= hi) {
        wd.init(lo, hi);
        for (std::int64_t k = lo; k <= hi; ++k) {
          std::int64_t h =
              std::max(m_open != nullptr ? m_open->at(k - 1) : kNone,
                       d_ext != nullptr ? d_ext->at(k - 1) : kNone);
          if (h != kNone) ++h;
          wd.slot(k) = valid(h, k) ? h : kNone;
        }
        ++result.stats.wavefronts;
        result.stats.cells += wd.off.size();
      }
    }

    // Mismatch/merge wavefront.
    Wave& wm = f.m[s];
    {
      std::int64_t lo = std::numeric_limits<std::int64_t>::max();
      std::int64_t hi = std::numeric_limits<std::int64_t>::min();
      if (m_mis != nullptr && !m_mis->empty()) {
        lo = std::min(lo, m_mis->lo);
        hi = std::max(hi, m_mis->hi);
      }
      if (!wi.empty()) {
        lo = std::min(lo, wi.lo);
        hi = std::max(hi, wi.hi);
      }
      if (!wd.empty()) {
        lo = std::min(lo, wd.lo);
        hi = std::max(hi, wd.hi);
      }
      lo = std::max(lo, k_min);
      hi = std::min(hi, k_max);
      if (lo > hi) continue;  // nothing reachable at this score
      wm.init(lo, hi);
      for (std::int64_t k = lo; k <= hi; ++k) {
        std::int64_t mm = m_mis != nullptr ? m_mis->at(k) : kNone;
        if (mm != kNone) ++mm;
        if (!valid(mm, k)) mm = kNone;
        const std::int64_t h = std::max({mm, wi.at(k), wd.at(k)});
        wm.slot(k) = h;
      }
      ++result.stats.wavefronts;
      result.stats.cells += wm.off.size();
      last_nonempty = s;
    }

    end_k = extend_and_check(wm);
  }

  result.aligned = true;
  result.score = static_cast<std::int32_t>(s);
  result.stats.max_score = s;
  result.text_end = static_cast<std::uint64_t>(f.m[s].at(end_k));

  // Traceback: walk the stored wavefronts backwards, re-deriving each M
  // entry's pre-extension predecessor (recomputed, not stored — the waves
  // are append-only, so the forward max is reproducible exactly).
  std::vector<CigarEntry> reversed;
  std::int64_t k = end_k;
  std::int64_t h = f.m[s].at(end_k);
  std::int64_t score = s;
  enum class Matrix { kM, kI, kD } at = Matrix::kM;
  while (true) {
    if (at == Matrix::kM) {
      std::int64_t mm = kNone, ii = kNone, dd = kNone;
      if (score >= x && f.m[static_cast<std::size_t>(score - x)].has(k)) {
        mm = f.m[static_cast<std::size_t>(score - x)].at(k);
        if (mm != kNone) ++mm;
        if (!valid(mm, k)) mm = kNone;
      }
      ii = f.i[static_cast<std::size_t>(score)].at(k);
      dd = f.d[static_cast<std::size_t>(score)].at(k);
      const std::int64_t pre =
          score == 0 ? k : std::max({mm, ii, dd});
      append_op(reversed, CigarOp::kMatch,
                static_cast<std::uint32_t>(h - pre));
      h = pre;
      if (score == 0) break;  // reached a free start: v == 0, h == k
      if (mm == pre) {
        append_op(reversed, CigarOp::kMismatch);
        score -= x;
        --h;
      } else if (ii == pre) {
        at = Matrix::kI;
      } else {
        at = Matrix::kD;
      }
    } else if (at == Matrix::kI) {
      append_op(reversed, CigarOp::kInsertion);
      const bool ext =
          score >= e &&
          f.i[static_cast<std::size_t>(score - e)].at(k + 1) == h;
      if (ext) {
        score -= e;
      } else {
        score -= oe;
        at = Matrix::kM;
      }
      ++k;
    } else {  // Matrix::kD
      append_op(reversed, CigarOp::kDeletion);
      const bool ext =
          score >= e &&
          f.d[static_cast<std::size_t>(score - e)].at(k - 1) == h - 1;
      --h;
      if (ext) {
        score -= e;
      } else {
        score -= oe;
        at = Matrix::kM;
      }
      --k;
    }
  }
  result.text_begin = static_cast<std::uint64_t>(h);
  result.cigar.assign(reversed.rbegin(), reversed.rend());
  result.edits = cigar_edits(result.cigar);
  return result;
}

std::int32_t cigar_sw_score(const std::vector<CigarEntry>& cigar,
                            const SwScoring& scoring) {
  std::int32_t score = 0;
  for (const auto& entry : cigar) {
    const auto len = static_cast<std::int32_t>(entry.length);
    switch (entry.op) {
      case CigarOp::kMatch:
        score += scoring.match * len;
        break;
      case CigarOp::kMismatch:
        score += scoring.mismatch * len;
        break;
      case CigarOp::kInsertion:
      case CigarOp::kDeletion:
        score += scoring.gap_open + scoring.gap_extend * (len - 1);
        break;
    }
  }
  return score;
}

std::uint32_t cigar_edits(const std::vector<CigarEntry>& cigar) {
  std::uint32_t edits = 0;
  for (const auto& entry : cigar) {
    if (entry.op != CigarOp::kMatch) edits += entry.length;
  }
  return edits;
}

}  // namespace pim::align
