#include "src/pim/subarray.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "src/pim/trace.h"

namespace pim::hw {

namespace {

/// One word (64 bit-lines) of the full-adder outputs of a triple sense.
struct FullAdderWord {
  std::uint64_t sum;    ///< XOR3
  std::uint64_t carry;  ///< MAJ3
};

FullAdderWord full_add(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  const std::uint64_t ab = a ^ b;
  return {ab ^ c, (a & b) | (ab & c)};
}

/// The first bit-line of every 2-bit lane.
constexpr std::uint64_t kLaneFirstBits = 0x5555555555555555ULL;

}  // namespace

SubArrayStats& SubArrayStats::operator+=(const SubArrayStats& other) {
  reads += other.reads;
  writes += other.writes;
  triple_senses += other.triple_senses;
  dpu_word_ops += other.dpu_word_ops;
  energy_pj += other.energy_pj;
  busy_ns += other.busy_ns;
  return *this;
}

SubArray::SubArray(const TimingEnergyModel& model)
    : model_(&model),
      costs_{model.op_cost(SubArrayOp::kMemRead),
             model.op_cost(SubArrayOp::kMemWrite),
             model.op_cost(SubArrayOp::kTripleSense),
             model.op_cost(SubArrayOp::kDpuWord)},
      words_per_row_((model.cols() + 63) / 64),
      grid_(static_cast<std::size_t>(model.rows()) * words_per_row_, 0) {}

void SubArray::charge(SubArrayOp op) {
  const OpCost& cost = costs_[static_cast<std::size_t>(op)];
  stats_.energy_pj += cost.energy_pj;
  stats_.busy_ns += cost.latency_ns;
  switch (op) {
    case SubArrayOp::kMemRead: ++stats_.reads; break;
    case SubArrayOp::kMemWrite: ++stats_.writes; break;
    case SubArrayOp::kTripleSense: ++stats_.triple_senses; break;
    case SubArrayOp::kDpuWord: ++stats_.dpu_word_ops; break;
  }
}

void SubArray::check_row(std::uint32_t row) const {
  if (row >= rows()) {
    throw std::out_of_range("SubArray: row out of range");
  }
}

void SubArray::check_vertical(std::uint32_t col, std::uint32_t row_begin,
                              std::uint32_t bits) const {
  if (bits == 0 || bits > 64) {
    throw std::invalid_argument("SubArray: vertical word width must be 1..64");
  }
  if (row_begin >= rows() || bits > rows() - row_begin) {
    throw std::out_of_range("SubArray: vertical word past the last row");
  }
  if (col >= cols()) throw std::out_of_range("SubArray: column out of range");
}

void SubArray::write_row(std::uint32_t row, const util::BitVector& bits) {
  check_row(row);
  if (bits.size() != cols()) {
    throw std::invalid_argument("SubArray::write_row: width mismatch");
  }
  std::ranges::copy(bits.words(), row_words(row));
  charge(SubArrayOp::kMemWrite);
  note_write(row);
  trace(SubArrayOp::kMemWrite, {row});
}

util::BitVector SubArray::mem_read_row(std::uint32_t row) {
  check_row(row);
  charge(SubArrayOp::kMemRead);
  trace(SubArrayOp::kMemRead, {row});
  const std::uint64_t* words = row_words(row);
  return util::BitVector::from_words(
      std::vector<std::uint64_t>(words, words + words_per_row_), cols());
}

util::BitVector SubArray::peek_row(std::uint32_t row) const {
  check_row(row);
  return util::BitVector::borrowed(row_words(row), cols());
}

SubArray::TripleOutputs SubArray::triple_sense(std::uint32_t r1,
                                               std::uint32_t r2,
                                               std::uint32_t r3) {
  check_row(r1);
  check_row(r2);
  check_row(r3);
  charge(SubArrayOp::kTripleSense);
  trace(SubArrayOp::kTripleSense, {r1, r2, r3});
  const std::uint64_t* a = row_words(r1);
  const std::uint64_t* b = row_words(r2);
  const std::uint64_t* c = row_words(r3);
  std::vector<std::uint64_t> and3(words_per_row_), maj3(words_per_row_),
      or3(words_per_row_), xor3(words_per_row_);
  for (std::uint32_t w = 0; w < words_per_row_; ++w) {
    const FullAdderWord fa = full_add(a[w], b[w], c[w]);
    and3[w] = a[w] & b[w] & c[w];
    maj3[w] = fa.carry;
    or3[w] = a[w] | b[w] | c[w];
    xor3[w] = fa.sum;
  }
  return {util::BitVector::from_words(std::move(and3), cols()),
          util::BitVector::from_words(std::move(maj3), cols()),
          util::BitVector::from_words(std::move(or3), cols()),
          util::BitVector::from_words(std::move(xor3), cols())};
}

util::BitVector SubArray::xnor2(std::uint32_t r1, std::uint32_t r2) {
  check_row(r1);
  check_row(r2);
  charge(SubArrayOp::kTripleSense);
  trace(SubArrayOp::kTripleSense, {r1, r2});
  // XOR3(a, b, 1) = NOT (a XOR b): the all-ones init row turns the XOR3
  // circuit into an XNOR2 in the same single cycle.
  const std::uint64_t* a = row_words(r1);
  const std::uint64_t* b = row_words(r2);
  std::vector<std::uint64_t> out(words_per_row_);
  for (std::uint32_t w = 0; w < words_per_row_; ++w) out[w] = ~(a[w] ^ b[w]);
  if (cols() % 64 != 0) out.back() &= (1ULL << (cols() % 64)) - 1;
  return util::BitVector::from_words(std::move(out), cols());
}

std::uint64_t SubArray::xnor2_lane_matches(std::uint32_t r1, std::uint32_t r2,
                                           std::uint32_t lanes) {
  check_row(r1);
  check_row(r2);
  if (2ULL * lanes > cols()) {
    throw std::invalid_argument("SubArray::xnor2_lane_matches: lanes > cols/2");
  }
  charge(SubArrayOp::kTripleSense);
  trace(SubArrayOp::kTripleSense, {r1, r2});
  const std::uint64_t* a = row_words(r1);
  const std::uint64_t* b = row_words(r2);
  // 32 lanes per word; a lane matches iff both of its XNOR bits are set.
  const auto lane_matches = [&](std::uint32_t w, std::uint64_t lane_mask) {
    const std::uint64_t match = ~(a[w] ^ b[w]);
    return static_cast<std::uint64_t>(
        std::popcount(match & (match >> 1) & lane_mask));
  };
  std::uint64_t matches = 0;
  const std::uint32_t full_words = lanes / 32;
  for (std::uint32_t w = 0; w < full_words; ++w) {
    matches += lane_matches(w, kLaneFirstBits);
  }
  if (lanes % 32 != 0) {
    matches += lane_matches(
        full_words, kLaneFirstBits & ((1ULL << (2 * (lanes % 32))) - 1));
  }
  return matches;
}

std::uint64_t SubArray::read_word_vertical(std::uint32_t col,
                                           std::uint32_t row_begin,
                                           std::uint32_t bits) {
  check_vertical(col, row_begin, bits);
  const std::uint64_t* cell = row_words(row_begin) + col / 64;
  const std::uint32_t shift = col % 64;
  std::uint64_t value = 0;
  for (std::uint32_t i = 0; i < bits; ++i) {
    charge(SubArrayOp::kMemRead);
    trace(SubArrayOp::kMemRead, {row_begin + i});
    value |= ((cell[static_cast<std::size_t>(i) * words_per_row_] >> shift) &
              1ULL)
             << i;
  }
  return value;
}

void SubArray::write_word_vertical(std::uint32_t col, std::uint32_t row_begin,
                                   std::uint32_t bits, std::uint64_t value) {
  check_vertical(col, row_begin, bits);
  std::uint64_t* cell = row_words(row_begin) + col / 64;
  const std::uint32_t shift = col % 64;
  for (std::uint32_t i = 0; i < bits; ++i) {
    charge(SubArrayOp::kMemWrite);
    note_write(row_begin + i);
    trace(SubArrayOp::kMemWrite, {row_begin + i});
    std::uint64_t& word = cell[static_cast<std::size_t>(i) * words_per_row_];
    word = (word & ~(1ULL << shift)) | (((value >> i) & 1ULL) << shift);
  }
}

void SubArray::im_add(std::uint32_t row_a, std::uint32_t row_b,
                      std::uint32_t row_sum, std::uint32_t row_carry,
                      std::uint32_t bits) {
  check_row(row_a + bits - 1);
  check_row(row_b + bits - 1);
  check_row(row_sum + bits - 1);
  check_row(row_carry);

  // Clear the carry row (one write).
  std::uint64_t* carry = row_words(row_carry);
  std::fill_n(carry, words_per_row_, 0);
  charge(SubArrayOp::kMemWrite);
  note_write(row_carry);
  trace(SubArrayOp::kMemWrite, {row_carry});

  for (std::uint32_t i = 0; i < bits; ++i) {
    // Single-cycle full-adder bit: Carry = MAJ3, Sum = XOR3, produced by the
    // same triple sense of (a_i, b_i, carry) and written back in place. Each
    // word's operands are read before its results are stored, so the sum
    // row may alias an operand row.
    charge(SubArrayOp::kTripleSense);
    trace(SubArrayOp::kTripleSense, {row_a + i, row_b + i, row_carry});
    const std::uint64_t* a = row_words(row_a + i);
    const std::uint64_t* b = row_words(row_b + i);
    std::uint64_t* sum = row_words(row_sum + i);
    for (std::uint32_t w = 0; w < words_per_row_; ++w) {
      const FullAdderWord fa = full_add(a[w], b[w], carry[w]);
      sum[w] = fa.sum;
      carry[w] = fa.carry;
    }
    charge(SubArrayOp::kMemWrite);
    note_write(row_sum + i);
    trace(SubArrayOp::kMemWrite, {row_sum + i});
    charge(SubArrayOp::kMemWrite);
    note_write(row_carry);
    trace(SubArrayOp::kMemWrite, {row_carry});
  }
}

void SubArray::charge_dpu_word() {
  charge(SubArrayOp::kDpuWord);
  trace(SubArrayOp::kDpuWord, {});
}

void SubArray::trace(SubArrayOp op,
                     std::initializer_list<std::uint32_t> rows) {
  if (trace_ != nullptr) trace_->record(op, rows);
}

void SubArray::enable_write_tracking() {
  if (row_writes_.empty()) row_writes_.assign(rows(), 0);
}

void SubArray::reset_write_counts() {
  if (!row_writes_.empty()) row_writes_.assign(rows(), 0);
}

void SubArray::note_write(std::uint32_t row) {
  if (!row_writes_.empty()) ++row_writes_[row];
}

}  // namespace pim::hw
