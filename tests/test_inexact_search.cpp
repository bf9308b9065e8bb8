#include "src/align/inexact_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/genome/synthetic_genome.h"
#include "src/util/rng.h"
#include "tests/support/naive_search.h"

namespace pim::align {
namespace {

using genome::Base;
using genome::PackedSequence;

index::FmIndex small_index(const std::string& s, std::uint32_t bucket = 4) {
  return index::FmIndex::build(PackedSequence(s), {.bucket_width = bucket});
}

TEST(InexactSearch, ExactMatchFoundWithZeroBudget) {
  const auto fm = small_index("TGCTA", 2);
  InexactOptions opt;
  opt.max_diffs = 0;
  const auto result = inexact_search(fm, genome::encode("CTA"), opt);
  EXPECT_TRUE(result.found());
  EXPECT_EQ(result.best_diffs(), 0U);
  EXPECT_EQ(result.total_occurrences(), 1U);
}

TEST(InexactSearch, OneSubstitutionFound) {
  const auto fm = small_index("TGCTA", 2);
  InexactOptions opt;
  opt.max_diffs = 1;
  // CTT differs from the CTA substring by one substitution.
  const auto result = inexact_search(fm, genome::encode("CTT"), opt);
  EXPECT_TRUE(result.found());
  EXPECT_EQ(result.best_diffs(), 1U);
  const auto positions = inexact_locate(fm, genome::encode("CTT"), opt);
  ASSERT_FALSE(positions.empty());
  EXPECT_EQ(positions[0].first, 2U);
  EXPECT_EQ(positions[0].second, 1U);
}

TEST(InexactSearch, BudgetZeroRejectsMismatch) {
  const auto fm = small_index("TGCTA", 2);
  InexactOptions opt;
  opt.max_diffs = 0;
  EXPECT_FALSE(inexact_search(fm, genome::encode("CTT"), opt).found());
}

TEST(InexactSearch, EmptyReadReturnsWholeInterval) {
  const auto fm = small_index("ACGT");
  const auto result = inexact_search(fm, {}, {});
  ASSERT_EQ(result.hits.size(), 1U);
  EXPECT_EQ(result.hits[0].interval, fm.whole_interval());
}

TEST(InexactSearch, PruningDoesNotChangeResults) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 1500;
  spec.seed = 51;
  spec.repeat_fraction = 0.4;
  const PackedSequence text = genome::generate_reference(spec);
  const auto fm = index::FmIndex::build(text, {.bucket_width = 32});
  util::Xoshiro256 rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t len = 12 + rng.bounded(12);
    const std::size_t start = rng.bounded(text.size() - len);
    auto read = text.slice(start, start + len);
    // Mutate up to 2 positions.
    for (int m = 0; m < 2; ++m) {
      const std::size_t pos = rng.bounded(read.size());
      read[pos] = static_cast<Base>(rng.bounded(4));
    }
    for (const auto mode :
         {EditMode::kSubstitutionsOnly, EditMode::kFullEdit}) {
      InexactOptions with, without;
      with.max_diffs = without.max_diffs = 2;
      with.mode = without.mode = mode;
      with.use_lower_bound_pruning = true;
      without.use_lower_bound_pruning = false;
      const auto a = inexact_locate(fm, read, with);
      const auto b = inexact_locate(fm, read, without);
      EXPECT_EQ(a, b) << "trial=" << trial;
      // Pruning must not *increase* explored states.
      const auto ra = inexact_search(fm, read, with);
      const auto rb = inexact_search(fm, read, without);
      EXPECT_LE(ra.states_explored, rb.states_explored);
    }
  }
}

TEST(InexactSearch, StateBudgetTruncates) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 2000;
  spec.seed = 4;
  const PackedSequence text = genome::generate_reference(spec);
  const auto fm = index::FmIndex::build(text, {.bucket_width = 32});
  InexactOptions opt;
  opt.max_diffs = 2;
  opt.max_states = 10;
  std::vector<Base> read;
  for (int i = 0; i < 20; ++i) read.push_back(static_cast<Base>(i % 4));
  const auto result = inexact_search(fm, read, opt);
  EXPECT_TRUE(result.truncated);
  // The budget is checked at state entry, so the overshoot is bounded by
  // the branching factor of one expansion (4 bases x {del,match} + ins).
  EXPECT_LE(result.states_explored, 10U + 9U);
}

TEST(InexactSearch, LowerBoundDIsMonotoneAndBounded) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 800;
  spec.seed = 12;
  const PackedSequence text = genome::generate_reference(spec);
  const auto fm = index::FmIndex::build(text, {.bucket_width = 32});
  util::Xoshiro256 rng(13);
  std::vector<Base> read;
  for (int i = 0; i < 30; ++i) read.push_back(static_cast<Base>(rng.bounded(4)));
  const auto d = compute_lower_bound_d(fm, read);
  ASSERT_EQ(d.size(), read.size());
  for (std::size_t i = 1; i < d.size(); ++i) {
    EXPECT_GE(d[i], d[i - 1]);
    EXPECT_LE(d[i] - d[i - 1], 1U);
  }
}

TEST(InexactSearch, DIsZeroForPlantedRead) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 800;
  spec.seed = 14;
  const PackedSequence text = genome::generate_reference(spec);
  const auto fm = index::FmIndex::build(text, {.bucket_width = 32});
  const auto read = text.slice(100, 130);
  const auto d = compute_lower_bound_d(fm, read);
  for (const auto v : d) EXPECT_EQ(v, 0U);
}

// Property: substitutions-only inexact search equals the Hamming oracle.
class HammingEquivalence : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HammingEquivalence, MatchesBruteForce) {
  const std::uint32_t z = GetParam();
  genome::SyntheticGenomeSpec spec;
  spec.length = 1200;
  spec.seed = 100 + z;
  spec.repeat_fraction = 0.5;
  spec.repeat_unit_length = 40;
  const PackedSequence text = genome::generate_reference(spec);
  const auto fm = index::FmIndex::build(text, {.bucket_width = 32});
  util::Xoshiro256 rng(200 + z);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t len = 10 + rng.bounded(8);
    std::vector<Base> read;
    if (trial % 3 != 2) {
      const std::size_t start = rng.bounded(text.size() - len);
      read = text.slice(start, start + len);
      for (std::uint32_t m = 0; m < z; ++m) {
        read[rng.bounded(read.size())] = static_cast<Base>(rng.bounded(4));
      }
    } else {
      for (std::size_t i = 0; i < len; ++i) {
        read.push_back(static_cast<Base>(rng.bounded(4)));
      }
    }
    InexactOptions opt;
    opt.max_diffs = z;
    opt.mode = EditMode::kSubstitutionsOnly;
    const auto got = inexact_locate(fm, read, opt);
    const auto want = naive_hamming_positions(text, read, z);
    EXPECT_EQ(got, want) << "z=" << z << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, HammingEquivalence,
                         ::testing::Values(0U, 1U, 2U, 3U));

// Property: full-edit inexact search finds the same positions as the edit-
// distance oracle (position set equality; per-position distance equality).
TEST(InexactSearch, FullEditMatchesEditOracle) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 400;
  spec.seed = 61;
  spec.repeat_fraction = 0.3;
  const PackedSequence text = genome::generate_reference(spec);
  const auto fm = index::FmIndex::build(text, {.bucket_width = 16});
  util::Xoshiro256 rng(62);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t len = 12 + rng.bounded(6);
    const std::size_t start = rng.bounded(text.size() - len - 4);
    auto read = text.slice(start, start + len);
    // Apply one random edit so both paths exercise non-trivial matches.
    const auto kind = rng.bounded(3);
    if (kind == 0) {
      read[rng.bounded(read.size())] = static_cast<Base>(rng.bounded(4));
    } else if (kind == 1) {
      read.insert(read.begin() + static_cast<long>(rng.bounded(read.size())),
                  static_cast<Base>(rng.bounded(4)));
    } else {
      read.erase(read.begin() + static_cast<long>(rng.bounded(read.size())));
    }
    InexactOptions opt;
    opt.max_diffs = 2;
    opt.mode = EditMode::kFullEdit;
    const auto got = inexact_locate(fm, read, opt);
    const auto want = naive_edit_positions(text, read, 2);
    EXPECT_EQ(got, want) << "trial=" << trial;
  }
}

}  // namespace
}  // namespace pim::align
