#include "tests/support/suffix_array_oracle.h"

#include <algorithm>
#include <numeric>
#include <vector>

namespace pim::index {

SuffixArray build_suffix_array_naive(const genome::PackedSequence& text) {
  const std::size_t n = text.size() + 1;  // including sentinel
  SuffixArray sa(n);
  std::iota(sa.begin(), sa.end(), 0U);
  const auto suffix_less = [&](std::uint32_t a, std::uint32_t b) {
    // Compare suffixes of text$; sentinel is smaller than every base.
    while (true) {
      const bool a_end = a >= text.size();
      const bool b_end = b >= text.size();
      if (a_end || b_end) return a_end && !b_end;
      const auto ca = text.at(a);
      const auto cb = text.at(b);
      if (ca != cb) return ca < cb;
      ++a;
      ++b;
    }
  };
  std::sort(sa.begin(), sa.end(), suffix_less);
  return sa;
}

bool is_valid_suffix_array(const genome::PackedSequence& text,
                           const SuffixArray& sa) {
  const std::size_t n = text.size() + 1;
  if (sa.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (const auto v : sa) {
    if (v >= n || seen[v]) return false;
    seen[v] = true;
  }
  const auto suffix_less_eq = [&](std::uint32_t a, std::uint32_t b) {
    while (true) {
      const bool a_end = a >= text.size();
      const bool b_end = b >= text.size();
      if (a_end) return true;            // "$..." <= anything
      if (b_end) return false;
      const auto ca = text.at(a);
      const auto cb = text.at(b);
      if (ca != cb) return ca < cb;
      ++a;
      ++b;
    }
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!suffix_less_eq(sa[i], sa[i + 1])) return false;
  }
  return true;
}

}  // namespace pim::index
