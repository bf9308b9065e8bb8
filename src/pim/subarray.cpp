#include "src/pim/subarray.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/pim/trace.h"

namespace pim::hw {

namespace {

/// One word of the full-adder outputs of a triple sense: 64 bit-lines as a
/// std::uint64_t, or two such words as a Word2.
template <typename Word>
struct FullAdderWord {
  Word sum;    ///< XOR3
  Word carry;  ///< MAJ3
};

template <typename Word>
FullAdderWord<Word> full_add(Word a, Word b, Word c) {
  const Word ab = a ^ b;
  return {ab ^ c, (a & b) | (ab & c)};
}

/// Two adjacent row words (128 bit-lines) as a GCC vector: one SSE2
/// register on x86-64, which every x86-64 CPU has.
using Word2 = std::uint64_t __attribute__((vector_size(16)));

template <typename Word>
Word load(const std::uint64_t* words) {
  Word value = {};
  std::memcpy(&value, words, sizeof value);
  return value;
}

template <typename Word>
void store(std::uint64_t* words, Word value) {
  std::memcpy(words, &value, sizeof value);
}

/// The IM_ADD of one column word: `bits` full-adder steps down the rows
/// `stride` words apart, the carry held in a register. Each step loads its
/// operands before it stores its sum, so the sum rows may alias the operand
/// rows. Returns the final carry.
template <typename Word>
Word add_column(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* sum, std::size_t stride, std::uint32_t bits) {
  Word carry = {};
  for (std::uint32_t i = 0; i < bits; ++i) {
    const std::size_t at = static_cast<std::size_t>(i) * stride;
    const FullAdderWord<Word> fa =
        full_add(load<Word>(a + at), load<Word>(b + at), carry);
    store(sum + at, fa.sum);
    carry = fa.carry;
  }
  return carry;
}

/// Energy and busy time of a run of commands, summed in registers in
/// command order: the per-op costs need not be exact binary fractions, so
/// the order of the adds is part of the result.
struct ChargeSum {
  double energy_pj;
  double busy_ns;

  void add(const OpCost& cost) {
    energy_pj += cost.energy_pj;
    busy_ns += cost.latency_ns;
  }
  void commit_to(SubArrayStats& stats) const {
    stats.energy_pj = energy_pj;
    stats.busy_ns = busy_ns;
  }
};

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
  const OpCost& op_cost = cost(op);
  stats_.energy_pj += op_cost.energy_pj;
  stats_.busy_ns += op_cost.latency_ns;
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
  check_rows(row_begin, bits);
  if (col >= cols()) throw std::out_of_range("SubArray: column out of range");
}

void SubArray::check_rows(std::uint32_t row_begin, std::uint32_t count) const {
  if (row_begin >= rows() || count > rows() - row_begin) {
    throw std::out_of_range("SubArray: row range past the last row");
  }
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
    const FullAdderWord<std::uint64_t> fa = full_add(a[w], b[w], c[w]);
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
    value |= ((cell[static_cast<std::size_t>(i) * words_per_row_] >> shift) &
              1ULL)
             << i;
  }
  // One row sense per bit.
  const OpCost& read = cost(SubArrayOp::kMemRead);
  ChargeSum charges{stats_.energy_pj, stats_.busy_ns};
  for (std::uint32_t i = 0; i < bits; ++i) charges.add(read);
  charges.commit_to(stats_);
  stats_.reads += bits;
  if (trace_ != nullptr) {
    for (std::uint32_t i = 0; i < bits; ++i) {
      trace(SubArrayOp::kMemRead, {row_begin + i});
    }
  }
  return value;
}

void SubArray::write_word_vertical(std::uint32_t col, std::uint32_t row_begin,
                                   std::uint32_t bits, std::uint64_t value) {
  check_vertical(col, row_begin, bits);
  std::uint64_t* cell = row_words(row_begin) + col / 64;
  const std::uint32_t shift = col % 64;
  for (std::uint32_t i = 0; i < bits; ++i) {
    std::uint64_t& word = cell[static_cast<std::size_t>(i) * words_per_row_];
    word = (word & ~(1ULL << shift)) | (((value >> i) & 1ULL) << shift);
  }
  // One row write per bit.
  const OpCost& write = cost(SubArrayOp::kMemWrite);
  ChargeSum charges{stats_.energy_pj, stats_.busy_ns};
  for (std::uint32_t i = 0; i < bits; ++i) charges.add(write);
  charges.commit_to(stats_);
  stats_.writes += bits;
  if (trace_ != nullptr || write_tracking_enabled()) {
    for (std::uint32_t i = 0; i < bits; ++i) {
      note_write(row_begin + i);
      trace(SubArrayOp::kMemWrite, {row_begin + i});
    }
  }
}

void SubArray::im_add(std::uint32_t row_a, std::uint32_t row_b,
                      std::uint32_t row_sum, std::uint32_t row_carry,
                      std::uint32_t bits) {
  if (bits == 0) {
    throw std::invalid_argument("SubArray::im_add: width must be >= 1");
  }
  check_rows(row_a, bits);
  check_rows(row_b, bits);
  check_rows(row_sum, bits);
  check_row(row_carry);
  // The carry lives in a register until the last bit, so a carry row that
  // is also an operand or sum row would read or lose it.
  for (const std::uint32_t begin : {row_a, row_b, row_sum}) {
    if (row_carry >= begin && row_carry - begin < bits) {
      throw std::invalid_argument(
          "SubArray::im_add: carry row inside an operand or sum range");
    }
  }

  // Bit-lines are independent, so the add runs column word by column word
  // (two at a time, then a scalar tail), each through all `bits` rows with
  // its carry in a register. Within a column the bits still go in order,
  // which is all an aliased sum range (A += B, or shifted) depends on. The
  // carry row is cleared and rewritten every bit in the modelled array;
  // only its final value is stored here.
  const std::uint64_t* a = row_words(row_a);
  const std::uint64_t* b = row_words(row_b);
  std::uint64_t* sum = row_words(row_sum);
  std::uint64_t* carry = row_words(row_carry);
  const std::size_t stride = words_per_row_;
  std::uint32_t w = 0;
  for (; w + 2 <= words_per_row_; w += 2) {
    store(carry + w, add_column<Word2>(a + w, b + w, sum + w, stride, bits));
  }
  if (w < words_per_row_) {
    carry[w] = add_column<std::uint64_t>(a + w, b + w, sum + w, stride, bits);
  }

  // The commands, in order: one carry-row clear, then per bit
  // `add_senses_per_bit` triple senses of (a_i, b_i, carry) producing
  // Sum = XOR3 and Carry = MAJ3, and the sum and carry write-backs.
  const std::uint32_t senses = model_->add_senses_per_bit();
  const OpCost& write = cost(SubArrayOp::kMemWrite);
  const OpCost& sense = cost(SubArrayOp::kTripleSense);
  ChargeSum charges{stats_.energy_pj, stats_.busy_ns};
  charges.add(write);
  for (std::uint32_t i = 0; i < bits; ++i) {
    for (std::uint32_t s = 0; s < senses; ++s) charges.add(sense);
    charges.add(write);
    charges.add(write);
  }
  charges.commit_to(stats_);
  stats_.writes += 1 + 2ULL * bits;
  stats_.triple_senses += static_cast<std::uint64_t>(senses) * bits;
  if (trace_ != nullptr || write_tracking_enabled()) {
    note_write(row_carry);
    trace(SubArrayOp::kMemWrite, {row_carry});
    for (std::uint32_t i = 0; i < bits; ++i) {
      for (std::uint32_t s = 0; s < senses; ++s) {
        trace(SubArrayOp::kTripleSense, {row_a + i, row_b + i, row_carry});
      }
      note_write(row_sum + i);
      trace(SubArrayOp::kMemWrite, {row_sum + i});
      note_write(row_carry);
      trace(SubArrayOp::kMemWrite, {row_carry});
    }
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
