// Packed bit vector with word-level bulk operations and popcount.
//
// The PIM sub-array model takes and returns rows as BitVectors; it computes
// its bulk bit-wise primitives (AND3/MAJ/OR3/XOR3) on its own word grid.
//
// Backed by Storage<uint64_t> (S42): built vectors own their words; load
// paths may borrow a read-only word region (a section of a mapped index
// artifact) zero-copy. Mutating a borrowed vector transparently copies it
// first (see Storage::ensure_owned).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/util/storage.h"

namespace pim::util {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t num_bits, bool value = false);

  /// Borrow `num_bits` bits over a read-only word region of
  /// (num_bits + 63) / 64 words that must outlive the vector. Throws
  /// std::invalid_argument if the unused tail bits of the last word are not
  /// zero (the canonical form every owned BitVector maintains — a nonzero
  /// tail means the region is not a serialized BitVector).
  static BitVector borrowed(const std::uint64_t* words, std::size_t num_bits);

  /// Adopt a word buffer (owned or borrowed Storage) as `num_bits` bits.
  /// Throws std::invalid_argument on a word-count mismatch or nonzero tail
  /// bits. This is the deserialization entry point: the stream loader passes
  /// owned words, the mapped loader borrowed ones.
  static BitVector from_words(Storage<std::uint64_t> words,
                              std::size_t num_bits);

  std::size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  bool get(std::size_t i) const {
    return (words_.data()[i >> 6] >> (i & 63)) & 1ULL;
  }
  void set(std::size_t i, bool value) {
    const std::uint64_t mask = 1ULL << (i & 63);
    if (value) {
      words_.vec()[i >> 6] |= mask;
    } else {
      words_.vec()[i >> 6] &= ~mask;
    }
  }

  void resize(std::size_t num_bits, bool value = false);
  void clear_all();
  void set_all();

  /// Number of set bits. Word-parallel (std::popcount per 64-bit word).
  std::size_t popcount() const;

  // Word-parallel bulk logic. Operands must have equal size.
  BitVector operator&(const BitVector& other) const;
  BitVector operator|(const BitVector& other) const;
  BitVector operator^(const BitVector& other) const;
  BitVector operator~() const;
  BitVector& operator&=(const BitVector& other);
  BitVector& operator|=(const BitVector& other);
  BitVector& operator^=(const BitVector& other);

  bool operator==(const BitVector& other) const;

  std::span<const std::uint64_t> words() const { return words_.span(); }
  /// True when the words are owned (heap) rather than borrowed (mapped).
  bool owns_storage() const { return words_.owned(); }

 private:
  void trim_tail();
  static void check_same_size(const BitVector& a, const BitVector& b);

  std::size_t num_bits_ = 0;
  Storage<std::uint64_t> words_;
};

}  // namespace pim::util
