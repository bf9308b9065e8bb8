// Arena-backed read batch — the batch-first input representation of the
// alignment engine layer (S37).
//
// Every front-end used to shuttle reads as std::vector<std::vector<Base>>:
// one heap allocation per read and a copy at each layer boundary, which caps
// host-side throughput before the PIM model is even consulted. ReadBatch
// instead stores all reads of a batch 2-bit packed in ONE contiguous buffer
// (the same density as the reference's PackedSequence and the sub-array
// word-lines, Fig. 6a), with optional name/quality slabs for FASTQ input.
// Reads are handed around as ReadView — a span-style non-owning view
// (pointer + base offset + length) that unpacks on demand into a reusable
// scratch buffer, so a 100k-read batch costs O(1) allocations instead of
// O(reads).
//
// ReadBatchBuilder assembles a batch in a single pass over FASTQ records,
// read-simulator output, or raw base vectors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/genome/alphabet.h"
#include "src/genome/fastq.h"
#include "src/genome/packed_sequence.h"

namespace pim::align {

class ReadBatch;

/// Non-owning view of one read inside a ReadBatch arena. Cheap to copy
/// (16 bytes); valid as long as the owning batch is alive and unmodified.
class ReadView {
 public:
  ReadView() = default;

  std::size_t size() const { return length_; }
  bool empty() const { return length_ == 0; }

  genome::Base operator[](std::size_t i) const {
    const std::uint64_t g = offset_ + i;
    return static_cast<genome::Base>((words_[g >> 5] >> ((g & 31) * 2)) &
                                     0b11);
  }

  /// Unpack into `out`, reusing its capacity (clear + append). The engine
  /// hot path calls this once per read with a per-worker scratch buffer.
  void unpack_into(std::vector<genome::Base>& out) const;

  /// Allocating convenience for tests and one-off call sites.
  std::vector<genome::Base> unpack() const;

 private:
  friend class ReadBatch;
  ReadView(const std::uint64_t* words, std::uint64_t offset,
           std::uint32_t length)
      : words_(words), offset_(offset), length_(length) {}

  const std::uint64_t* words_ = nullptr;
  std::uint64_t offset_ = 0;  ///< Base (not bit) offset into the arena.
  std::uint32_t length_ = 0;
};

/// Immutable batch of reads in one 2-bit-packed arena, plus optional
/// name/quality slabs (single strings with per-read offsets).
class ReadBatch {
 public:
  ReadBatch() = default;

  std::size_t size() const { return read_offsets_.size() - 1; }
  bool empty() const { return size() == 0; }
  std::size_t total_bases() const { return read_offsets_.back(); }

  ReadView read(std::size_t i) const {
    return ReadView(words_.data(), read_offsets_[i],
                    static_cast<std::uint32_t>(read_offsets_[i + 1] -
                                               read_offsets_[i]));
  }
  std::size_t read_length(std::size_t i) const {
    return read_offsets_[i + 1] - read_offsets_[i];
  }

  bool has_names() const { return !name_offsets_.empty(); }
  bool has_qualities() const { return !qual_offsets_.empty(); }
  /// Empty when the batch carries no names/qualities.
  std::string_view name(std::size_t i) const;
  std::string_view qualities(std::size_t i) const;

  /// Heap bytes held by the arena + slabs (the streaming pipeline's
  /// peak-batch accounting).
  std::size_t memory_bytes() const;

  /// Single-pass conveniences over the builder.
  static ReadBatch from_reads(
      const std::vector<std::vector<genome::Base>>& reads);
  static ReadBatch from_fastq(const std::vector<genome::FastqRecord>& records);

 private:
  friend class ReadBatchBuilder;
  std::vector<std::uint64_t> words_;  ///< 32 bases per word, packed.
  /// size()+1 base offsets; the leading 0 keeps empty batches well-formed.
  std::vector<std::uint64_t> read_offsets_{0};
  std::string names_;
  std::vector<std::uint64_t> name_offsets_;  ///< size()+1 when present.
  std::string quals_;
  std::vector<std::uint64_t> qual_offsets_;  ///< size()+1 when present.
};

/// Builds a ReadBatch in one pass. All reads must be added before build();
/// names/qualities are all-or-nothing per batch (a batch mixing named and
/// unnamed reads stores empty strings for the unnamed ones).
class ReadBatchBuilder {
 public:
  ReadBatchBuilder();

  /// Pre-size the arena (counts are hints, not limits).
  void reserve(std::size_t num_reads, std::size_t expected_total_bases);

  void add(const std::vector<genome::Base>& read, std::string_view name = {},
           std::string_view qualities = {});
  void add(const genome::PackedSequence& read, std::string_view name = {},
           std::string_view qualities = {});
  /// Append reference[begin, end) directly — no temporary read vector.
  void add_slice(const genome::PackedSequence& reference, std::size_t begin,
                 std::size_t end, std::string_view name = {},
                 std::string_view qualities = {});
  void add(const genome::FastqRecord& record);

  std::size_t size() const { return batch_.read_offsets_.size() - 1; }

  /// Finalize and move the batch out; the builder resets to empty.
  ReadBatch build();

  /// Drop any in-progress batch and start over, keeping the current arena
  /// capacity. With `recycled`, adopt that batch's arenas instead (contents
  /// cleared, capacity kept) — the double-buffered streaming producer hands
  /// consumed batches back this way so no generation reallocates.
  void reset();
  void reset(ReadBatch&& recycled);

 private:
  void push_base(genome::Base b);
  void finish_read(std::string_view name, std::string_view qualities);

  ReadBatch batch_;
  std::uint64_t cursor_ = 0;  ///< Total bases appended so far.
  bool any_names_ = false;
  bool any_quals_ = false;
};

}  // namespace pim::align
