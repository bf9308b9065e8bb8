#include "tests/support/bi_index.h"

#include <gtest/gtest.h>

#include "src/align/inexact_search.h"
#include "src/align/search_core.h"
#include "src/genome/synthetic_genome.h"
#include "src/util/rng.h"

namespace pim::align {
namespace {

using genome::Base;
using genome::PackedSequence;

struct Fixture {
  PackedSequence text;
  BiFmIndex bi;
  explicit Fixture(std::size_t length = 4000, std::uint64_t seed = 3) {
    genome::SyntheticGenomeSpec spec;
    spec.length = length;
    spec.seed = seed;
    spec.repeat_fraction = 0.4;
    text = genome::generate_reference(spec);
    bi = BiFmIndex::build(text, {.bucket_width = 64});
  }
};

TEST(BiFmIndex, ReverseIndexIsOverReversedText) {
  const Fixture f(500);
  EXPECT_EQ(f.bi.forward().reference_size(), f.bi.reverse().reference_size());
  // A pattern occurring forward must occur reversed in the reverse index.
  const auto chunk = f.text.slice(100, 130);
  std::vector<Base> reversed_chunk(chunk.rbegin(), chunk.rend());
  index::SaInterval fwd = f.bi.forward().whole_interval();
  for (auto it = chunk.rbegin(); it != chunk.rend(); ++it) {
    fwd = f.bi.forward().extend(fwd, *it);
  }
  index::SaInterval rev = f.bi.reverse().whole_interval();
  for (auto it = reversed_chunk.rbegin(); it != reversed_chunk.rend(); ++it) {
    rev = f.bi.reverse().extend(rev, *it);
  }
  EXPECT_TRUE(fwd.valid());
  EXPECT_TRUE(rev.valid());
  EXPECT_EQ(fwd.count(), rev.count());  // same occurrence multiset size
}

// The central property: the forward-only D-array (galloping chunk search)
// equals the O(m) reverse-index D, an independent computation, for planted,
// mutated and random reads of every length class the engine sees.
class BiDEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BiDEquivalence, DArraysIdentical) {
  const Fixture f(3000, static_cast<std::uint64_t>(GetParam()) + 10);
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 99);
  const auto random_read = [&](std::size_t len) {
    std::vector<Base> read(len);
    for (auto& b : read) b = static_cast<Base>(rng.bounded(4));
    return read;
  };
  const auto planted = [&](std::size_t len) {
    const std::size_t start = rng.bounded(f.text.size() - len);
    return f.text.slice(start, start + len);
  };
  const auto substitute = [&](std::vector<Base>& read, std::size_t at) {
    read[at] = static_cast<Base>(
        (static_cast<std::uint64_t>(read[at]) + 1 + rng.bounded(3)) % 4);
  };
  const auto check = [&](const std::vector<Base>& read, const char* what) {
    EXPECT_EQ(compute_lower_bound_d(f.bi.forward(), read),
              f.bi.compute_lower_bound_d(read))
        << what << ", length " << read.size();
  };
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Base> read;
    const std::size_t len = 15 + rng.bounded(40);
    if (trial % 3 == 0) {
      read = random_read(len);
    } else {
      read = planted(len);
      for (int m = 0; m < trial % 4; ++m) {
        read[rng.bounded(read.size())] = static_cast<Base>(rng.bounded(4));
      }
    }
    check(read, "short read");
  }
  // Paper-length reads: occurring whole, and with 1-3 substitutions, one
  // of them at the first or the last base when the trial says so.
  constexpr std::size_t kLen = 100;
  for (int trial = 0; trial < 12; ++trial) {
    auto read = planted(kLen);
    check(read, "whole 100-bp read");
    const int subs = 1 + trial % 3;
    if (trial % 4 == 1) substitute(read, 0);
    if (trial % 4 == 2) substitute(read, kLen - 1);
    if (trial % 4 == 3) {
      substitute(read, 0);
      substitute(read, kLen - 1);
    }
    for (int s = 0; s < subs; ++s) substitute(read, rng.bounded(kLen));
    check(read, "substituted 100-bp read");
    check(random_read(kLen), "random 100-bp read");
  }
  for (const std::size_t len : {std::size_t{1}, std::size_t{2}}) {
    check(planted(len), "tiny planted read");
    check(random_read(len), "tiny random read");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BiDEquivalence, ::testing::Range(0, 8));

// An FmIndex view that counts the backward-extension steps it serves.
struct CountingBackend {
  const index::FmIndex& fm;
  mutable std::size_t extends = 0;
  index::SaInterval whole_interval() const { return fm.whole_interval(); }
  index::SaInterval extend(const index::SaInterval& iv, Base b) const {
    ++extends;
    return fm.extend(iv, b);
  }
};

// The restart formulation the galloping search replaces: one backward
// search from the chunk start to every i.
std::vector<std::uint32_t> restart_d(const CountingBackend& backend,
                                     const std::vector<Base>& read) {
  std::vector<std::uint32_t> d(read.size(), 0);
  std::uint32_t z = 0;
  std::size_t chunk_begin = 0;
  for (std::size_t i = 0; i < read.size(); ++i) {
    if (!detail::chunk_occurs(backend, read, chunk_begin, i)) {
      ++z;
      chunk_begin = i + 1;
    }
    d[i] = z;
  }
  return d;
}

TEST(LowerBoundD, GallopingCostsAtMostThreeMExtendsForAnOccurringRead) {
  const Fixture f(3000, 21);
  constexpr std::size_t kLen = 100;
  const auto read = f.text.slice(1200, 1200 + kLen);
  CountingBackend galloping{f.bi.forward()};
  CountingBackend restart{f.bi.forward()};
  const auto d = compute_lower_bound_d_core(galloping, read);
  EXPECT_EQ(d, restart_d(restart, read));
  EXPECT_EQ(d, std::vector<std::uint32_t>(kLen, 0));
  EXPECT_LE(galloping.extends, 3 * kLen);
  EXPECT_EQ(restart.extends, kLen * (kLen + 1) / 2);  // 5050
}

// The empty read: both D computations give an empty array, and Algorithm 2
// reports the whole interval with no differences.
TEST(BiFmIndex, EmptyReadHandled) {
  const Fixture f(300);
  EXPECT_TRUE(f.bi.compute_lower_bound_d({}).empty());
  EXPECT_TRUE(compute_lower_bound_d(f.bi.forward(), {}).empty());
  const auto result = inexact_search(f.bi.forward(), {}, {});
  ASSERT_EQ(result.hits.size(), 1U);
  EXPECT_EQ(result.hits[0].interval, f.bi.forward().whole_interval());
  EXPECT_EQ(result.hits[0].diffs, 0U);
}

TEST(BiFmIndex, DForAbsentChunksCounts) {
  // A read made of two chunks absent from the reference gets D rising to 2.
  const Fixture f(2000, 5);
  util::Xoshiro256 rng(17);
  std::vector<Base> read;
  for (int i = 0; i < 60; ++i) read.push_back(static_cast<Base>(rng.bounded(4)));
  const auto d = f.bi.compute_lower_bound_d(read);
  EXPECT_GE(d.back(), 1U);  // 60 random bases almost surely miss
  for (std::size_t i = 1; i < d.size(); ++i) {
    EXPECT_GE(d[i], d[i - 1]);
    EXPECT_LE(d[i] - d[i - 1], 1U);
  }
}

}  // namespace
}  // namespace pim::align
