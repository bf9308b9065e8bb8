#include "src/align/global_align.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace pim::align {

GlocalResult glocal_align(const std::vector<genome::Base>& window,
                          const std::vector<genome::Base>& read,
                          const SwScoring& scoring) {
  const std::size_t n = window.size();
  const std::size_t m = read.size();
  if (n == 0 || m == 0) {
    throw std::invalid_argument("glocal_align: empty input");
  }

  // dp[i][j]: best score aligning read[0..i) with window ending at j.
  // Row 0 is free (leading reference gap); column 0 charges read gaps
  // (insertions) because every read base must be consumed.
  constexpr std::int32_t kNegInf = -1'000'000;
  std::vector<std::int32_t> dp((m + 1) * (n + 1), kNegInf);
  std::vector<std::uint8_t> dir((m + 1) * (n + 1), 0);  // 1=diag 2=up 3=left
  const auto at = [&](std::size_t i, std::size_t j) -> std::int32_t& {
    return dp[i * (n + 1) + j];
  };
  for (std::size_t j = 0; j <= n; ++j) at(0, j) = 0;  // free start in ref
  for (std::size_t i = 1; i <= m; ++i) {
    at(i, 0) = at(i - 1, 0) + scoring.gap_extend;
    dir[i * (n + 1)] = 2;
  }

  // Score band. The ungapped alignment at window offset 0, with h
  // mismatches, scores S0 = match*m - slack, slack = h*(match - mismatch),
  // so the optimum scores at least S0. A path with I insertions and D
  // deletions scores at most match*(m - I) + gap*(I + D); reaching S0 needs
  // I*(match - gap) + D*(-gap) <= slack, so I <= Imax = slack/(match - gap).
  // The path starts in row 0 on diagonal j - i = j0 >= 0, insertions lower
  // the diagonal, deletions raise it, and it ends by column n, so
  // j0 + D <= (n - m) + I: it stays on diagonals [-Imax, (n - m) + Imax].
  // Cells off that band stay -inf. The full matrix's traceback path lies
  // inside it and keeps its values, every value its direction choices were
  // compared against can only fall, and so can every other cell of the last
  // row: directions, the first maximum and the result are unchanged.
  // Without n >= m or a scoring with gap < 0 < match and mismatch < match
  // the band is the whole matrix.
  const auto gap = scoring.gap_extend;
  std::int64_t lo_diag = -static_cast<std::int64_t>(m);
  std::int64_t hi_diag = static_cast<std::int64_t>(n);
  if (n >= m && gap < 0 && scoring.match > 0 &&
      scoring.mismatch < scoring.match) {
    std::int64_t h = 0;
    for (std::size_t i = 0; i < m; ++i) h += read[i] != window[i];
    const std::int64_t max_ins =
        h * (scoring.match - scoring.mismatch) / (scoring.match - gap);
    lo_diag = -max_ins;
    hi_diag = static_cast<std::int64_t>(n - m) + max_ins;
  }

  for (std::size_t i = 1; i <= m; ++i) {
    const auto row = static_cast<std::int64_t>(i);
    const std::size_t j_lo =
        static_cast<std::size_t>(std::max<std::int64_t>(1, row + lo_diag));
    const std::size_t j_hi = static_cast<std::size_t>(
        std::min<std::int64_t>(static_cast<std::int64_t>(n), row + hi_diag));
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const bool match = read[i - 1] == window[j - 1];
      const std::int32_t diag =
          at(i - 1, j - 1) + (match ? scoring.match : scoring.mismatch);
      const std::int32_t up = at(i - 1, j) + gap;    // read ins
      const std::int32_t left = at(i, j - 1) + gap;  // ref del
      std::int32_t best = diag;
      std::uint8_t d = 1;
      if (up > best) {
        best = up;
        d = 2;
      }
      if (left > best) {
        best = left;
        d = 3;
      }
      at(i, j) = best;
      dir[i * (n + 1) + j] = d;
    }
  }

  // Free end in the reference: best cell of the last row.
  std::size_t best_j = 0;
  for (std::size_t j = 1; j <= n; ++j) {
    if (at(m, j) > at(m, best_j)) best_j = j;
  }

  GlocalResult result;
  result.score = at(m, best_j);
  result.ref_end = best_j;

  // Traceback to row 0.
  std::vector<CigarEntry> reversed;
  const auto push = [&](CigarOp op) {
    if (!reversed.empty() && reversed.back().op == op) {
      ++reversed.back().length;
    } else {
      reversed.push_back(CigarEntry{op, 1});
    }
  };
  std::size_t i = m, j = best_j;
  while (i > 0) {
    switch (dir[i * (n + 1) + j]) {
      case 1:
        push(read[i - 1] == window[j - 1] ? CigarOp::kMatch
                                          : CigarOp::kMismatch);
        --i;
        --j;
        break;
      case 2:
        push(CigarOp::kInsertion);
        --i;
        break;
      case 3:
        push(CigarOp::kDeletion);
        --j;
        break;
      default:
        throw std::logic_error("glocal_align: broken traceback");
    }
  }
  result.ref_begin = j;
  result.cigar.assign(reversed.rbegin(), reversed.rend());
  for (const auto& entry : result.cigar) {
    if (entry.op != CigarOp::kMatch) result.edits += entry.length;
  }
  return result;
}

std::string glocal_cigar_string(const GlocalResult& result) {
  std::ostringstream out;
  std::uint32_t run = 0;
  char run_op = 0;
  const auto flush = [&]() {
    if (run > 0) out << run << run_op;
    run = 0;
  };
  for (const auto& entry : result.cigar) {
    char op = 0;
    switch (entry.op) {
      case CigarOp::kMatch:
      case CigarOp::kMismatch: op = 'M'; break;
      case CigarOp::kInsertion: op = 'I'; break;
      case CigarOp::kDeletion: op = 'D'; break;
    }
    if (op != run_op) {
      flush();
      run_op = op;
    }
    run += entry.length;
  }
  flush();
  return out.str();
}

}  // namespace pim::align
