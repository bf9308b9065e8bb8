#include "src/index/suffix_array.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>

namespace pim::index {

namespace {

using I = std::int32_t;

// ---------------------------------------------------------------------------
// SA-IS (Nong, Zhang, Chan 2009), following Yuta Mori's compact formulation.
// `t` is an integer string of length n over alphabet [0, k) whose last
// character is the unique smallest (the sentinel). `sa` has room for n.
// The top level runs on the byte text; the reduced problem's text lives in
// the back of `sa` itself, so the recursion runs on int32.
// ---------------------------------------------------------------------------

void fill_bucket_bounds(const std::vector<I>& counts, std::vector<I>& bounds,
                        bool bucket_ends) {
  I sum = 0;
  for (std::size_t a = 0; a < counts.size(); ++a) {
    sum += counts[a];
    bounds[a] = bucket_ends ? sum : sum - counts[a];
  }
}

// Induced sort: given LMS suffixes already placed, derive L-type suffixes in
// a left-to-right pass, then S-type suffixes in a right-to-left pass.
template <typename T>
void induce_sort(const T* t, I* sa, I n, const std::vector<bool>& is_s,
                 const std::vector<I>& counts, std::vector<I>& bounds) {
  fill_bucket_bounds(counts, bounds, /*bucket_ends=*/false);
  for (I i = 0; i < n; ++i) {
    const I j = sa[i];
    if (j > 0 && !is_s[static_cast<std::size_t>(j - 1)]) {
      sa[bounds[static_cast<std::size_t>(t[j - 1])]++] = j - 1;
    }
  }
  fill_bucket_bounds(counts, bounds, /*bucket_ends=*/true);
  for (I i = n - 1; i >= 0; --i) {
    const I j = sa[i];
    if (j > 0 && is_s[static_cast<std::size_t>(j - 1)]) {
      sa[--bounds[static_cast<std::size_t>(t[j - 1])]] = j - 1;
    }
  }
}

template <typename T>
void sais(const T* t, I* sa, I n, I k) {
  if (n == 1) {  // just the sentinel
    sa[0] = 0;
    return;
  }

  // Classify suffixes: S-type if t[i..] < t[i+1..], L-type otherwise.
  std::vector<bool> is_s(static_cast<std::size_t>(n));
  is_s[static_cast<std::size_t>(n - 1)] = true;
  for (I i = n - 2; i >= 0; --i) {
    is_s[static_cast<std::size_t>(i)] =
        t[i] < t[i + 1] ||
        (t[i] == t[i + 1] && is_s[static_cast<std::size_t>(i + 1)]);
  }
  const auto is_lms = [&](I i) {
    return i > 0 && is_s[static_cast<std::size_t>(i)] &&
           !is_s[static_cast<std::size_t>(i - 1)];
  };

  std::vector<I> counts(static_cast<std::size_t>(k), 0);
  for (I i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(t[i])];
  std::vector<I> bounds(static_cast<std::size_t>(k));

  // Stage 1: approximately sort LMS suffixes by one round of induced sorting.
  std::fill(sa, sa + n, I{-1});
  fill_bucket_bounds(counts, bounds, /*bucket_ends=*/true);
  for (I i = 1; i < n; ++i) {
    if (is_lms(i)) sa[--bounds[static_cast<std::size_t>(t[i])]] = i;
  }
  induce_sort(t, sa, n, is_s, counts, bounds);

  // Compact the sorted LMS suffixes to the front of sa.
  I n1 = 0;
  for (I i = 0; i < n; ++i) {
    if (is_lms(sa[i])) sa[n1++] = sa[i];
  }

  // Name each LMS substring; equal substrings share a name.
  std::fill(sa + n1, sa + n, I{-1});
  I name_count = 0;
  I prev = -1;
  for (I i = 0; i < n1; ++i) {
    const I pos = sa[i];
    bool differs = (prev < 0);
    if (!differs) {
      for (I d = 0;; ++d) {
        if (t[pos + d] != t[prev + d] ||
            is_s[static_cast<std::size_t>(pos + d)] !=
                is_s[static_cast<std::size_t>(prev + d)]) {
          differs = true;
          break;
        }
        if (d > 0 && (is_lms(pos + d) || is_lms(prev + d))) {
          break;  // both LMS substrings ended equal
        }
      }
    }
    if (differs) {
      ++name_count;
      prev = pos;
    }
    sa[n1 + pos / 2] = name_count - 1;
  }
  for (I i = n - 1, j = n - 1; i >= n1; --i) {
    if (sa[i] >= 0) sa[j--] = sa[i];
  }

  // Stage 2: sort the reduced problem (LMS substring names in text order).
  I* const sa1 = sa;
  I* const t1 = sa + n - n1;
  if (name_count < n1) {
    sais<I>(t1, sa1, n1, name_count);
  } else {
    for (I i = 0; i < n1; ++i) sa1[t1[i]] = i;
  }

  // Stage 3: place the now exactly-sorted LMS suffixes and induce once more.
  for (I i = 1, j = 0; i < n; ++i) {
    if (is_lms(i)) t1[j++] = i;  // t1[r] = text position of r-th LMS suffix
  }
  for (I i = 0; i < n1; ++i) sa1[i] = t1[sa1[i]];
  std::fill(sa + n1, sa + n, I{-1});
  fill_bucket_bounds(counts, bounds, /*bucket_ends=*/true);
  for (I i = n1 - 1; i >= 0; --i) {
    const I j = sa[i];
    sa[i] = -1;
    sa[--bounds[static_cast<std::size_t>(t[j])]] = j;
  }
  induce_sort(t, sa, n, is_s, counts, bounds);
}

}  // namespace

SuffixArray build_suffix_array(const genome::PackedSequence& text) {
  if (text.size() >
      static_cast<std::size_t>(std::numeric_limits<I>::max()) - 2) {
    throw std::invalid_argument("build_suffix_array: text too long for int32");
  }
  // reference$ as bytes over {$:0, A:1, C:2, G:3, T:4}.
  std::vector<std::uint8_t> t(text.size() + 1);
  for (std::size_t i = 0; i < text.size(); ++i) {
    t[i] = static_cast<std::uint8_t>(static_cast<unsigned>(text.at(i)) + 1);
  }
  t.back() = 0;  // sentinel
  // SA-IS writes the returned array in place, through its int32 view (a
  // signed view of an unsigned object is an allowed alias); every value it
  // leaves there is a position in [0, n].
  SuffixArray sa(t.size());
  sais(t.data(), reinterpret_cast<I*>(sa.data()), static_cast<I>(t.size()), 5);
  return sa;
}

}  // namespace pim::index
