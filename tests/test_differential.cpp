// Differential matrix: the full algorithm stack against brute-force oracles
// across the configuration space (bucket width x edit mode x difference
// budget x reference character). Each cell runs a batch of
// planted/mutated/random reads; any mismatch between the FM-index paths and
// the oracles anywhere in the matrix fails the suite.
#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "src/align/inexact_search.h"
#include "src/genome/synthetic_genome.h"
#include "src/util/rng.h"
#include "tests/support/naive_search.h"

namespace pim::align {
namespace {

using genome::Base;
using genome::PackedSequence;

struct MatrixParam {
  std::uint32_t bucket;
  EditMode mode;
  std::uint32_t z;
  double repeat_fraction;
  std::uint64_t seed;
};

// The cell's name in test listings.
void PrintTo(const MatrixParam& p, std::ostream* os) {
  *os << "bucket=" << p.bucket
      << (p.mode == EditMode::kSubstitutionsOnly ? " subst" : " edit")
      << " z=" << p.z << " repeats=" << p.repeat_fraction
      << " seed=" << p.seed;
}

class DifferentialMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(DifferentialMatrix, FmMatchesOracle) {
  const MatrixParam p = GetParam();
  genome::SyntheticGenomeSpec spec;
  spec.length = p.mode == EditMode::kFullEdit ? 500 : 1200;
  spec.seed = p.seed;
  spec.repeat_fraction = p.repeat_fraction;
  spec.repeat_unit_length = 31;
  const PackedSequence text = genome::generate_reference(spec);
  const auto fm = index::FmIndex::build(text, {.bucket_width = p.bucket});

  util::Xoshiro256 rng(p.seed * 31 + 7);
  const int trials = p.mode == EditMode::kFullEdit ? 6 : 12;
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t len = 10 + rng.bounded(10);
    std::vector<Base> read;
    switch (trial % 3) {
      case 0: {  // planted, possibly mutated within budget
        const std::size_t start = rng.bounded(text.size() - len);
        read = text.slice(start, start + len);
        for (std::uint32_t m = 0; m < p.z && m < 2; ++m) {
          read[rng.bounded(read.size())] = static_cast<Base>(rng.bounded(4));
        }
        break;
      }
      case 1: {  // planted, over-mutated (often beyond budget)
        const std::size_t start = rng.bounded(text.size() - len);
        read = text.slice(start, start + len);
        for (int m = 0; m < 5; ++m) {
          read[rng.bounded(read.size())] = static_cast<Base>(rng.bounded(4));
        }
        break;
      }
      default: {  // random
        for (std::size_t i = 0; i < len; ++i) {
          read.push_back(static_cast<Base>(rng.bounded(4)));
        }
        break;
      }
    }

    InexactOptions opt;
    opt.max_diffs = p.z;
    opt.mode = p.mode;
    const auto got = inexact_locate(fm, read, opt);
    const auto want = p.mode == EditMode::kSubstitutionsOnly
                          ? naive_hamming_positions(text, read, p.z)
                          : naive_edit_positions(text, read, p.z);
    ASSERT_EQ(got, want) << "bucket=" << p.bucket << " z=" << p.z
                         << " trial=" << trial;
  }
}

std::vector<MatrixParam> matrix() {
  std::vector<MatrixParam> cells;
  std::uint64_t seed = 1;
  for (const std::uint32_t bucket : {1U, 32U, 128U}) {
    for (const auto mode :
         {EditMode::kSubstitutionsOnly, EditMode::kFullEdit}) {
      for (const std::uint32_t z : {0U, 1U, 2U}) {
        const double repeats = (seed % 2 == 0) ? 0.5 : 0.0;
        cells.push_back(MatrixParam{bucket, mode, z, repeats, seed});
        ++seed;
      }
    }
    // Twelve seeds per bucket, as when the matrix also swept the SA sample
    // rate, so each cell keeps the reference and reads it always had.
    seed += 6;
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(FullMatrix, DifferentialMatrix,
                         ::testing::ValuesIn(matrix()));

}  // namespace
}  // namespace pim::align
