// Computational SOT-MRAM sub-array (Fig. 4a), functional model.
//
// A rows x cols bit grid supporting the dual-mode operation set of the
// paper's micro-architecture:
//   * memory write / read of full rows (WD / MRD / SA with C_M),
//   * single-cycle triple-row sense producing AND3 / MAJ / OR3 / XOR3 across
//     all bit-lines in parallel (the reconfigurable SA of Fig. 4b),
//   * XNOR2 via XOR3 with an (assumed pre-initialised) all-ones row,
//   * bit-serial in-memory add over vertical operands sharing bit-lines
//     (IM_ADD: Carry = MAJ, Sum = XOR3, single cycle per bit).
//
// Every operation charges the TimingEnergyModel and tallies per-op counts so
// the controller and the chip model can roll up latency / energy / MBR / RUR.
// Logic values are ideal Booleans here; electrical fidelity (does a triple
// sense resolve correctly under process variation?) is the sense-amp model's
// job and is Monte-Carlo-verified separately — the paper's tox fix makes the
// failure rate effectively zero, which is the regime this functional model
// assumes.
//
// Host representation: the grid is one contiguous row-major array of 64-bit
// words (four per row at 256 columns; unused tail bits kept zero), and every
// op works on those words in place. Bit-lines are independent in IM_ADD, so
// it runs column word by column word (two at a time as one 128-bit GCC
// vector, then a scalar tail for an odd words-per-row), each through all of
// its bits with the carry in a register, and stores the carry row once at
// the end. Ops made of many commands (IM_ADD, the vertical word reads and
// writes) sum their charges in registers, still once per modelled command
// and in command order, and commit them once; they trace and count row
// writes per command only when a trace is attached or tracking is on. So
// the op tallies, energy/busy sums, command traces and write counts do not
// depend on how the host computes the result.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "src/pim/timing_energy.h"
#include "src/util/bit_vector.h"

namespace pim::hw {

class CommandTrace;

struct SubArrayStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t triple_senses = 0;
  std::uint64_t dpu_word_ops = 0;
  double energy_pj = 0.0;
  double busy_ns = 0.0;  ///< Serial occupancy (sum of op latencies).

  SubArrayStats& operator+=(const SubArrayStats& other);
};

class SubArray {
 public:
  explicit SubArray(const TimingEnergyModel& model);

  std::uint32_t rows() const { return model_->rows(); }
  std::uint32_t cols() const { return model_->cols(); }

  // --- Memory mode ---------------------------------------------------------
  /// Copies `bits` (owned or borrowed) into the row.
  void write_row(std::uint32_t row, const util::BitVector& bits);
  /// MEM: sense one row. Charged as a read.
  util::BitVector mem_read_row(std::uint32_t row);

  /// Test/debug access without charging the cost model: a zero-copy view of
  /// the row's words, valid while this SubArray lives (the grid never
  /// reallocates); later writes to the row show through it.
  util::BitVector peek_row(std::uint32_t row) const;

  // --- Compute mode ----------------------------------------------------------
  struct TripleOutputs {
    util::BitVector and3, maj3, or3, xor3;
  };
  /// Single-cycle parallel sense of three rows with all logic references.
  TripleOutputs triple_sense(std::uint32_t r1, std::uint32_t r2,
                             std::uint32_t r3);

  /// XNOR2 of two rows (XOR3 with the all-ones init row); one triple sense.
  util::BitVector xnor2(std::uint32_t r1, std::uint32_t r2);

  /// XNOR_Match of rows r1 and r2 fused with the DPU's lane-pair popcount:
  /// the number of 2-bit lanes j < `lanes` (bit-lines 2j and 2j+1) where the
  /// two rows agree on both bits. Charged and traced exactly as xnor2 (one
  /// triple sense); the caller charges the DPU word. Requires
  /// 2 * lanes <= cols().
  std::uint64_t xnor2_lane_matches(std::uint32_t r1, std::uint32_t r2,
                                   std::uint32_t lanes);

  // --- Vertical (bit-line local) word access -------------------------------
  /// Read a `bits`-wide little-endian word stored down one column starting
  /// at `row_begin`. Costs `bits` row senses. `bits` must be 1..64
  /// (std::invalid_argument otherwise).
  std::uint64_t read_word_vertical(std::uint32_t col, std::uint32_t row_begin,
                                   std::uint32_t bits);
  /// Write a word vertically; costs `bits` row writes. `bits` as above.
  void write_word_vertical(std::uint32_t col, std::uint32_t row_begin,
                           std::uint32_t bits, std::uint64_t value);

  /// IM_ADD: bit-serial add of the vertical words at rows [row_a, row_a+bits)
  /// and [row_b, ...) into [row_sum, ...), using `row_carry` as the carry
  /// row. Operates on ALL bit-lines in parallel (that is the point of the
  /// design); cost: per bit `add_senses_per_bit()` triple senses + sum/carry
  /// write-backs, plus one carry-row clear. The sum rows may alias the
  /// operand rows (row_sum == row_a computes A += B). `bits` must be >= 1
  /// (std::invalid_argument), every range must lie inside the array
  /// (std::out_of_range), and the carry row must lie outside the operand
  /// and sum ranges (std::invalid_argument).
  void im_add(std::uint32_t row_a, std::uint32_t row_b, std::uint32_t row_sum,
              std::uint32_t row_carry, std::uint32_t bits);

  /// Charge one DPU word operation (popcount / compare / pointer update on a
  /// row-sized value). The DPU itself lives outside the array; the charge is
  /// recorded here so per-tile accounting stays in one place.
  void charge_dpu_word();

  const SubArrayStats& stats() const { return stats_; }
  void reset_stats() { stats_ = SubArrayStats{}; }

  // --- Endurance / wear tracking -------------------------------------------
  // MRAM cells endure ~1e12-1e15 writes; the IM_ADD carry row is written
  // every adder cycle, making it the wear hot spot. Tracking is off by
  // default (zero cost); when enabled, every row write increments a
  // per-row counter so the endurance analysis can find hot rows and
  // project array lifetime.
  void enable_write_tracking();
  bool write_tracking_enabled() const { return !row_writes_.empty(); }
  /// Per-row write counts (empty unless tracking enabled).
  const std::vector<std::uint64_t>& row_write_counts() const {
    return row_writes_;
  }
  void reset_write_counts();

  // --- Command tracing -------------------------------------------------------
  /// Attach (or detach with nullptr) a command trace; every subsequent
  /// operation appends its Ctrl-level command. The trace is not owned and
  /// must outlive the attachment.
  void attach_trace(CommandTrace* trace) { trace_ = trace; }

  const TimingEnergyModel& model() const { return *model_; }

 private:
  void charge(SubArrayOp op);
  void note_write(std::uint32_t row);
  void trace(SubArrayOp op, std::initializer_list<std::uint32_t> rows);
  void check_row(std::uint32_t row) const;
  void check_rows(std::uint32_t row_begin, std::uint32_t count) const;
  void check_vertical(std::uint32_t col, std::uint32_t row_begin,
                      std::uint32_t bits) const;
  const OpCost& cost(SubArrayOp op) const {
    return costs_[static_cast<std::size_t>(op)];
  }
  std::uint64_t* row_words(std::uint32_t row) {
    return grid_.data() + static_cast<std::size_t>(row) * words_per_row_;
  }
  const std::uint64_t* row_words(std::uint32_t row) const {
    return grid_.data() + static_cast<std::size_t>(row) * words_per_row_;
  }

  const TimingEnergyModel* model_;
  /// model_->op_cost(op) for every op, indexed by the op's value. Cached
  /// because an out-of-line call per charge was most of an LFM's host time.
  std::array<OpCost, 4> costs_;
  std::uint32_t words_per_row_;
  std::vector<std::uint64_t> grid_;  ///< rows() x words_per_row_, row-major.
  SubArrayStats stats_;
  std::vector<std::uint64_t> row_writes_;
  CommandTrace* trace_ = nullptr;
};

}  // namespace pim::hw
