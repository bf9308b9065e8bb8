#include "src/pim/subarray.h"

#include <gtest/gtest.h>

#include <cstdint>
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
  // PIM-Aligner's single-sense adder and the AlignS-style two-sense one.
  for (const std::int64_t senses : {1, 2}) {
    util::Config config;
    config.set_int("AddSensesPerBit", senses);
    const TimingEnergyModel model(config);
    SubArray array(model);
    CommandTrace trace;
    array.attach_trace(&trace);
    array.im_add(0, 32, 64, 96, 32);
    const OpCost expected = model.im_add_cost(32);
    EXPECT_NEAR(array.stats().busy_ns, expected.latency_ns, 1e-9) << senses;
    EXPECT_NEAR(array.stats().energy_pj, expected.energy_pj, 1e-9) << senses;
    EXPECT_EQ(array.stats().triple_senses, 32U * senses);
    EXPECT_EQ(trace.count(SubArrayOp::kTripleSense), 32U * senses);
  }
}

TEST(SubArray, ImAddRangesChecked) {
  Fixture f;
  // A zero width, like a zero-width vertical word, is no add at all.
  EXPECT_THROW(f.array.im_add(0, 32, 64, 96, 0), std::invalid_argument);
  // A width that wraps row + bits - 1 back into the array.
  EXPECT_THROW(f.array.im_add(10, 40, 80, 120, 0xFFFFFFF8u),
               std::out_of_range);
  // Each range past the last row, and the carry row.
  EXPECT_THROW(f.array.im_add(500, 0, 64, 96, 32), std::out_of_range);
  EXPECT_THROW(f.array.im_add(0, 481, 64, 128, 32), std::out_of_range);
  EXPECT_THROW(f.array.im_add(0, 32, 481, 96, 32), std::out_of_range);
  EXPECT_THROW(f.array.im_add(0, 32, 64, 512, 32), std::out_of_range);
  // The carry row inside an operand or a sum range.
  EXPECT_THROW(f.array.im_add(0, 32, 64, 31, 32), std::invalid_argument);
  EXPECT_THROW(f.array.im_add(0, 32, 64, 32, 32), std::invalid_argument);
  EXPECT_THROW(f.array.im_add(0, 32, 64, 95, 32), std::invalid_argument);
  const SubArrayStats& stats = f.array.stats();
  EXPECT_EQ(stats.writes + stats.triple_senses, 0U);
  EXPECT_EQ(stats.energy_pj, 0.0);
  // The last rows of the array are a valid add, and so is a carry row
  // right after every range.
  EXPECT_NO_THROW(f.array.im_add(0, 32, 480, 511, 31));
  EXPECT_NO_THROW(f.array.im_add(0, 32, 64, 96, 32));
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
// sense: clear the carry row, then per bit sense (a_i, b_i, carry)
// `add_senses_per_bit` times and write back XOR3 to the sum row and MAJ3 to
// the carry row. Both arrays run the same commands, so rows, tallies,
// traces and row writes must all agree.
void reference_im_add(SubArray& array, std::uint32_t row_a,
                      std::uint32_t row_b, std::uint32_t row_sum,
                      std::uint32_t row_carry, std::uint32_t bits) {
  array.write_row(row_carry, util::BitVector(array.cols()));
  for (std::uint32_t i = 0; i < bits; ++i) {
    for (std::uint32_t s = 1; s < array.model().add_senses_per_bit(); ++s) {
      array.triple_sense(row_a + i, row_b + i, row_carry);
    }
    const auto t = array.triple_sense(row_a + i, row_b + i, row_carry);
    array.write_row(row_sum + i, t.xor3);
    array.write_row(row_carry, t.maj3);
  }
}

/// The PimGolden fractional costs: their sums are inexact, so a change in
/// the order or number of charges moves the energy/busy doubles.
util::Config fractional_costs() {
  util::Config costs;
  costs.set_double("ReadLatencyNs", 1.1);
  costs.set_double("ReadEnergyPj", 18.3);
  costs.set_double("WriteLatencyNs", 0.7);
  costs.set_double("WriteEnergyPj", 60.1);
  costs.set_double("TripleSenseLatencyNs", 4.3);
  costs.set_double("TripleSenseEnergyPj", 30.7);
  costs.set_double("DpuWordLatencyNs", 1.3);
  costs.set_double("DpuWordEnergyPj", 6.1);
  return costs;
}

/// Fractional-cost models: the default 256 columns (pairs of words only),
/// 200 (a ragged last word), 136 (three words: a pair and the scalar tail,
/// which is ragged) and the two-sense adder.
std::vector<TimingEnergyModel> oracle_models() {
  std::vector<TimingEnergyModel> models;
  for (const std::int64_t cols : {256, 200, 136}) {
    util::Config config = fractional_costs();
    config.set_int("ColsPerSubarray", cols);
    models.emplace_back(config);
  }
  util::Config two_senses = fractional_costs();
  two_senses.set_int("AddSensesPerBit", 2);
  models.emplace_back(two_senses);
  return models;
}

void expect_same_array(const SubArray& fast, const SubArray& reference,
                       const CommandTrace& fast_trace,
                       const CommandTrace& reference_trace) {
  for (std::uint32_t row = 0; row < fast.rows(); ++row) {
    ASSERT_TRUE(fast.peek_row(row) == reference.peek_row(row)) << row;
  }
  EXPECT_EQ(fast_trace.entries(), reference_trace.entries());
  EXPECT_EQ(fast.row_write_counts(), reference.row_write_counts());
  EXPECT_EQ(fast.stats().reads, reference.stats().reads);
  EXPECT_EQ(fast.stats().writes, reference.stats().writes);
  EXPECT_EQ(fast.stats().triple_senses, reference.stats().triple_senses);
  EXPECT_EQ(fast.stats().energy_pj, reference.stats().energy_pj);
  EXPECT_EQ(fast.stats().busy_ns, reference.stats().busy_ns);
}

class ImAddKernel : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ImAddKernel, InPlaceEqualsTripleSenseReference) {
  const std::uint32_t bits = GetParam();
  struct Case {
    std::uint32_t a, b, sum, carry;
  };
  constexpr std::uint32_t kRowA = 0, kRowB = 96;
  // Separate sum rows, A += B (the sum rows are the A rows), and a sum
  // range shifted one row into A, so each bit's sum is the next bit's A.
  const Case cases[] = {{kRowA, kRowB, 192, 300},
                        {kRowA, kRowB, kRowA, 300},
                        {kRowA, kRowB, kRowA + 1, 300}};
  for (const TimingEnergyModel& model : oracle_models()) {
    for (const Case c : cases) {
      SCOPED_TRACE(::testing::Message()
                   << "bits=" << bits << " cols=" << model.cols()
                   << " senses=" << model.add_senses_per_bit()
                   << " sum=" << c.sum);
      SubArray fast(model);
      SubArray reference(model);
      // The operand writes leave an inexact running sum for the add to
      // charge on top of, as in a tile.
      for (std::uint32_t row = 0; row < 2 * bits; ++row) {
        const std::uint32_t target =
            row < bits ? kRowA + row : kRowB + row - bits;
        const auto bits_row = random_row(model.cols(), 97 * bits + row);
        fast.write_row(target, bits_row);
        reference.write_row(target, bits_row);
      }
      fast.enable_write_tracking();
      reference.enable_write_tracking();
      CommandTrace fast_trace, reference_trace;
      fast.attach_trace(&fast_trace);
      reference.attach_trace(&reference_trace);
      fast.im_add(c.a, c.b, c.sum, c.carry, bits);
      reference_im_add(reference, c.a, c.b, c.sum, c.carry, bits);
      expect_same_array(fast, reference, fast_trace, reference_trace);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryWidth, ImAddKernel, ::testing::Range(1U, 65U));

// A w-bit vertical word op against w one-bit row ops: a bit write is the
// row rewritten with that bit changed (one charged, traced, tracked row
// write), a bit read is one row sense. The same bits must land in the same
// cells, with the row ops' charges, trace and row writes, in order.
class VerticalWordKernel : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(VerticalWordKernel, WideWordEqualsOneBitRowOps) {
  const std::uint32_t bits = GetParam();
  const TimingEnergyModel model(fractional_costs());
  util::Xoshiro256 rng(31 + bits);
  SubArray fast(model);
  SubArray reference(model);
  fast.enable_write_tracking();
  reference.enable_write_tracking();
  CommandTrace fast_trace, reference_trace;
  fast.attach_trace(&fast_trace);
  reference.attach_trace(&reference_trace);
  for (int trial = 0; trial < 8; ++trial) {
    const auto col = static_cast<std::uint32_t>(rng.bounded(model.cols()));
    const auto row =
        static_cast<std::uint32_t>(rng.bounded(model.rows() - bits + 1));
    const std::uint64_t value = rng();
    fast.write_word_vertical(col, row, bits, value);
    for (std::uint32_t i = 0; i < bits; ++i) {
      util::BitVector cells = reference.peek_row(row + i);
      cells.set(col, (value >> i) & 1ULL);
      reference.write_row(row + i, cells);
    }
    const std::uint64_t read = fast.read_word_vertical(col, row, bits);
    std::uint64_t reference_read = 0;
    for (std::uint32_t i = 0; i < bits; ++i) {
      reference_read |=
          static_cast<std::uint64_t>(reference.mem_read_row(row + i).get(col))
          << i;
    }
    const std::uint64_t mask = bits == 64 ? ~0ULL : (1ULL << bits) - 1;
    EXPECT_EQ(read, value & mask);
    EXPECT_EQ(read, reference_read);
  }
  expect_same_array(fast, reference, fast_trace, reference_trace);
}

INSTANTIATE_TEST_SUITE_P(EveryWidth, VerticalWordKernel,
                         ::testing::Range(1U, 65U));

TEST(SubArray, DpuChargeCounts) {
  Fixture f;
  f.array.charge_dpu_word();
  f.array.charge_dpu_word();
  EXPECT_EQ(f.array.stats().dpu_word_ops, 2U);
}

}  // namespace
}  // namespace pim::hw
