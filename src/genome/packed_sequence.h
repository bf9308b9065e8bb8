// 2-bit-packed DNA sequence.
//
// The human reference (3.2 Gbp) only fits in memory at 2 bits/base; the
// paper's sub-array layout likewise stores 128 bps per 256-bit word-line
// (Fig. 6a). PackedSequence is the canonical in-memory representation used
// by the index builders and the PIM mapping layer.
//
// Backed by Storage<uint64_t> (S42): built sequences own their words; load
// paths may borrow a read-only word region (a section of a mapped index
// artifact) zero-copy. Mutation copies a borrowed region first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/genome/alphabet.h"
#include "src/util/storage.h"

namespace pim::genome {

class PackedSequence {
 public:
  PackedSequence() = default;
  explicit PackedSequence(const std::vector<Base>& bases);
  explicit PackedSequence(std::string_view ascii);

  /// Borrow `num_bases` 2-bit bases over a read-only word region of
  /// (num_bases + 31) / 32 words that must outlive the sequence. Throws
  /// std::invalid_argument if the unused tail bits of the last word are not
  /// zero (owned sequences keep them zero; a nonzero tail means the region
  /// is not a serialized PackedSequence).
  static PackedSequence borrowed(const std::uint64_t* words,
                                 std::size_t num_bases);

  /// Adopt a word buffer (owned or borrowed Storage) as `num_bases` bases.
  /// Throws std::invalid_argument on a word-count mismatch or nonzero tail
  /// bits. This is the deserialization entry point: the stream loader passes
  /// owned words, the mapped loader borrowed ones.
  static PackedSequence from_words(util::Storage<std::uint64_t> words,
                                   std::size_t num_bases);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Base at(std::size_t i) const {
    return static_cast<Base>((words_.data()[i >> 5] >> ((i & 31) * 2)) & 0b11);
  }

  void push_back(Base b);
  void set(std::size_t i, Base b);

  /// True iff bases [pos, pos + bases.size()) equal `bases` (false when the
  /// range runs past the end). Word-parallel: each group of 32 query bases
  /// is packed into one word and XOR-compared with the 32 lanes of the
  /// sequence starting at its offset.
  bool matches_at(std::size_t pos, std::span<const Base> bases) const;

  /// Copy of the half-open range [begin, end) as unpacked bases.
  std::vector<Base> slice(std::size_t begin, std::size_t end) const;
  std::vector<Base> unpack() const { return slice(0, size_); }
  std::string to_string() const;

  bool operator==(const PackedSequence& other) const;

  /// Raw packed words (32 bases each), for serialization.
  std::span<const std::uint64_t> words() const { return words_.span(); }
  /// True when the words are owned (heap) rather than borrowed (mapped).
  bool owns_storage() const { return words_.owned(); }

  /// Approximate resident footprint in bytes (used for the off-chip-memory
  /// accounting of Fig. 10a). Mapped storage counts the same — the pages
  /// are resident while searched.
  std::size_t memory_bytes() const { return words_.size() * sizeof(std::uint64_t); }

 private:
  std::size_t size_ = 0;
  util::Storage<std::uint64_t> words_;  // 32 bases per 64-bit word
};

}  // namespace pim::genome
