#include "src/pim/subarray.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/pim/trace.h"
#include "src/util/rng.h"

namespace pim::hw {
namespace {

util::BitVector random_row(std::uint32_t cols, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  util::BitVector row(cols);
  for (std::uint32_t i = 0; i < cols; ++i) row.set(i, rng.bernoulli(0.5));
  return row;
}

struct Fixture {
  TimingEnergyModel model;
  SubArray array{model};
};

TEST(SubArray, WriteReadRoundTrip) {
  Fixture f;
  const auto row = random_row(f.array.cols(), 1);
  f.array.write_row(7, row);
  EXPECT_TRUE(f.array.mem_read_row(7) == row);
  EXPECT_EQ(f.array.stats().writes, 1U);
  EXPECT_EQ(f.array.stats().reads, 1U);
}

TEST(SubArray, RowBoundsChecked) {
  Fixture f;
  util::BitVector row(f.array.cols());
  EXPECT_THROW(f.array.write_row(512, row), std::out_of_range);
  EXPECT_THROW(f.array.mem_read_row(512), std::out_of_range);
  EXPECT_THROW(f.array.write_row(0, util::BitVector(10)),
               std::invalid_argument);
}

TEST(SubArray, TripleSenseMatchesBitwiseTruth) {
  Fixture f;
  const auto a = random_row(f.array.cols(), 2);
  const auto b = random_row(f.array.cols(), 3);
  const auto c = random_row(f.array.cols(), 4);
  f.array.write_row(0, a);
  f.array.write_row(1, b);
  f.array.write_row(2, c);
  const auto out = f.array.triple_sense(0, 1, 2);
  for (std::uint32_t i = 0; i < f.array.cols(); ++i) {
    const int ones = a.get(i) + b.get(i) + c.get(i);
    EXPECT_EQ(out.and3.get(i), ones == 3);
    EXPECT_EQ(out.maj3.get(i), ones >= 2);
    EXPECT_EQ(out.or3.get(i), ones >= 1);
    EXPECT_EQ(out.xor3.get(i), ones % 2 == 1);
  }
  EXPECT_EQ(f.array.stats().triple_senses, 1U);
}

TEST(SubArray, Xnor2MatchesTruth) {
  Fixture f;
  const auto a = random_row(f.array.cols(), 5);
  const auto b = random_row(f.array.cols(), 6);
  f.array.write_row(0, a);
  f.array.write_row(1, b);
  const auto out = f.array.xnor2(0, 1);
  for (std::uint32_t i = 0; i < f.array.cols(); ++i) {
    EXPECT_EQ(out.get(i), a.get(i) == b.get(i));
  }
  // Single cycle: one triple sense (with the implicit all-ones init row).
  EXPECT_EQ(f.array.stats().triple_senses, 1U);
}

TEST(SubArray, VerticalWordRoundTrip) {
  Fixture f;
  f.array.write_word_vertical(100, 10, 32, 0xDEADBEEFULL);
  EXPECT_EQ(f.array.read_word_vertical(100, 10, 32), 0xDEADBEEFULL);
  // Neighbouring column untouched.
  EXPECT_EQ(f.array.read_word_vertical(101, 10, 32), 0ULL);
  EXPECT_EQ(f.array.stats().writes, 32U);
  EXPECT_EQ(f.array.stats().reads, 64U);
}

TEST(SubArray, VerticalWordBoundsChecked) {
  Fixture f;
  EXPECT_THROW(f.array.read_word_vertical(0, 500, 32), std::out_of_range);
  EXPECT_THROW(f.array.read_word_vertical(256, 0, 32), std::out_of_range);
  EXPECT_THROW(f.array.read_word_vertical(0, 0, 65), std::invalid_argument);
  EXPECT_THROW(f.array.write_word_vertical(0, 500, 32, 1), std::out_of_range);
}

TEST(SubArray, VerticalWordOfZeroBitsRejected) {
  Fixture f;
  // At row 0 (where row_begin + bits - 1 would wrap) and mid-array.
  EXPECT_THROW(f.array.read_word_vertical(0, 0, 0), std::invalid_argument);
  EXPECT_THROW(f.array.read_word_vertical(5, 10, 0), std::invalid_argument);
  EXPECT_THROW(f.array.write_word_vertical(0, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(f.array.write_word_vertical(5, 10, 0, 1),
               std::invalid_argument);
  EXPECT_EQ(f.array.stats().reads + f.array.stats().writes, 0U);
}

TEST(SubArray, WriteRowCopiesBorrowedBits) {
  Fixture f;
  const auto expected = random_row(f.array.cols(), 11);
  {
    const std::vector<std::uint64_t> buffer(expected.words().begin(),
                                            expected.words().end());
    const auto view = util::BitVector::borrowed(buffer.data(), f.array.cols());
    ASSERT_FALSE(view.owns_storage());
    f.array.write_row(4, view);
  }  // the borrowed buffer is gone; the row must not point into it
  f.array.write_row(5, util::BitVector(f.array.cols(), true));
  EXPECT_TRUE(f.array.mem_read_row(4) == expected);
  EXPECT_TRUE(f.array.peek_row(4) == expected);
  EXPECT_TRUE(f.array.xnor2(4, 5) == expected);
}

TEST(SubArray, ImAddSingleColumn) {
  Fixture f;
  f.array.write_word_vertical(3, 0, 32, 123456789ULL);
  f.array.write_word_vertical(3, 32, 32, 987654321ULL);
  f.array.im_add(0, 32, 64, 96, 32);
  EXPECT_EQ(f.array.read_word_vertical(3, 64, 32),
            (123456789ULL + 987654321ULL) & 0xFFFFFFFFULL);
}

TEST(SubArray, ImAddAllColumnsInParallel) {
  // The defining property: one IM_ADD services every bit-line at once.
  Fixture f;
  util::Xoshiro256 rng(9);
  std::vector<std::uint64_t> a(f.array.cols()), b(f.array.cols());
  for (std::uint32_t col = 0; col < f.array.cols(); ++col) {
    a[col] = rng.bounded(1ULL << 32);
    b[col] = rng.bounded(1ULL << 32);
    f.array.write_word_vertical(col, 0, 32, a[col]);
    f.array.write_word_vertical(col, 32, 32, b[col]);
  }
  const auto triple_before = f.array.stats().triple_senses;
  f.array.im_add(0, 32, 64, 96, 32);
  EXPECT_EQ(f.array.stats().triple_senses - triple_before, 32U);
  for (std::uint32_t col = 0; col < f.array.cols(); ++col) {
    EXPECT_EQ(f.array.read_word_vertical(col, 64, 32),
              (a[col] + b[col]) & 0xFFFFFFFFULL)
        << col;
  }
}

TEST(SubArray, ImAddWrapsModulo32Bits) {
  Fixture f;
  f.array.write_word_vertical(0, 0, 32, 0xFFFFFFFFULL);
  f.array.write_word_vertical(0, 32, 32, 1ULL);
  f.array.im_add(0, 32, 64, 96, 32);
  EXPECT_EQ(f.array.read_word_vertical(0, 64, 32), 0ULL);
}

TEST(SubArray, EnergyAndBusyAccumulate) {
  Fixture f;
  const auto row = random_row(f.array.cols(), 10);
  f.array.write_row(0, row);
  const double e1 = f.array.stats().energy_pj;
  const double t1 = f.array.stats().busy_ns;
  EXPECT_GT(e1, 0.0);
  EXPECT_GT(t1, 0.0);
  f.array.mem_read_row(0);
  EXPECT_GT(f.array.stats().energy_pj, e1);
  EXPECT_GT(f.array.stats().busy_ns, t1);
  f.array.reset_stats();
  EXPECT_EQ(f.array.stats().energy_pj, 0.0);
  EXPECT_EQ(f.array.stats().reads, 0U);
}

TEST(SubArray, ImAddCostMatchesModel) {
  Fixture f;
  f.array.reset_stats();
  f.array.im_add(0, 32, 64, 96, 32);
  const OpCost expected = f.model.im_add_cost(32);
  EXPECT_NEAR(f.array.stats().busy_ns, expected.latency_ns, 1e-9);
  EXPECT_NEAR(f.array.stats().energy_pj, expected.energy_pj, 1e-9);
}

TEST(SubArrayStats, Accumulate) {
  SubArrayStats a, b;
  a.reads = 2;
  a.energy_pj = 1.5;
  b.reads = 3;
  b.energy_pj = 2.5;
  a += b;
  EXPECT_EQ(a.reads, 5U);
  EXPECT_DOUBLE_EQ(a.energy_pj, 4.0);
}

// Property sweep: bit-serial adder correctness over operand widths.
class ImAddWidth : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ImAddWidth, MatchesIntegerAddition) {
  const std::uint32_t bits = GetParam();
  TimingEnergyModel model;
  SubArray array(model);
  util::Xoshiro256 rng(1000 + bits);
  const std::uint64_t mask =
      bits == 64 ? ~0ULL : ((1ULL << bits) - 1);
  for (int trial = 0; trial < 30; ++trial) {
    const std::uint64_t a = rng.bounded(mask) & mask;
    const std::uint64_t b = rng.bounded(mask) & mask;
    const std::uint32_t col = static_cast<std::uint32_t>(rng.bounded(256));
    array.write_word_vertical(col, 0, bits, a);
    array.write_word_vertical(col, 128, bits, b);
    array.im_add(0, 128, 256, 400, bits);
    EXPECT_EQ(array.read_word_vertical(col, 256, bits), (a + b) & mask)
        << "bits=" << bits << " a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ImAddWidth,
                         ::testing::Values(1U, 8U, 16U, 24U, 32U, 48U));

// In-place IM_ADD against the adder spelled out with the public triple
// sense: clear the carry row, then per bit sense (a_i, b_i, carry) and write
// back XOR3 to the sum row and MAJ3 to the carry row. Both arrays run the
// same commands, so rows, tallies and traces must all agree.
void reference_im_add(SubArray& array, std::uint32_t row_a,
                      std::uint32_t row_b, std::uint32_t row_sum,
                      std::uint32_t row_carry, std::uint32_t bits) {
  array.write_row(row_carry, util::BitVector(array.cols()));
  for (std::uint32_t i = 0; i < bits; ++i) {
    const auto t = array.triple_sense(row_a + i, row_b + i, row_carry);
    array.write_row(row_sum + i, t.xor3);
    array.write_row(row_carry, t.maj3);
  }
}

class ImAddKernel : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ImAddKernel, InPlaceEqualsTripleSenseReference) {
  const std::uint32_t bits = GetParam();
  TimingEnergyModel model;
  struct Case {
    std::uint32_t a, b, sum, carry;
  };
  // Separate sum rows, and A += B (the sum rows are the A rows).
  for (const Case c : {Case{0, 64, 128, 200}, Case{0, 64, 0, 200}}) {
    SubArray fast(model);
    SubArray reference(model);
    for (std::uint32_t row = 0; row < 2 * bits; ++row) {
      const std::uint32_t target = row < bits ? row : 64 + row - bits;
      const auto bits_row = random_row(model.cols(), 97 * bits + row);
      fast.write_row(target, bits_row);
      reference.write_row(target, bits_row);
    }
    CommandTrace fast_trace, reference_trace;
    fast.attach_trace(&fast_trace);
    reference.attach_trace(&reference_trace);
    fast.im_add(c.a, c.b, c.sum, c.carry, bits);
    reference_im_add(reference, c.a, c.b, c.sum, c.carry, bits);
    for (std::uint32_t row = 0; row < model.rows(); ++row) {
      ASSERT_TRUE(fast.peek_row(row) == reference.peek_row(row))
          << "bits=" << bits << " sum=" << c.sum << " row=" << row;
    }
    EXPECT_EQ(fast_trace.entries(), reference_trace.entries());
    EXPECT_EQ(fast.stats().writes, reference.stats().writes);
    EXPECT_EQ(fast.stats().triple_senses, reference.stats().triple_senses);
    EXPECT_EQ(fast.stats().energy_pj, reference.stats().energy_pj);
    EXPECT_EQ(fast.stats().busy_ns, reference.stats().busy_ns);
  }
}

INSTANTIATE_TEST_SUITE_P(EveryWidth, ImAddKernel, ::testing::Range(1U, 65U));

TEST(SubArray, DpuChargeCounts) {
  Fixture f;
  f.array.charge_dpu_word();
  f.array.charge_dpu_word();
  EXPECT_EQ(f.array.stats().dpu_word_ops, 2U);
}

}  // namespace
}  // namespace pim::hw
