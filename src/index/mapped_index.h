// Zero-copy index loading: mmap a v2 index artifact and assemble an FmIndex
// whose persisted structures (reference, BWT, marker rows, suffix array)
// *borrow* the mapped bytes through the S42 Storage seam.
//
// Why this exists: the stream loader copies every section into owned
// memory before the first query. A mapped artifact starts serving
// immediately: the kernel pages sections in on demand, clean pages are
// shared across every process mapping the same file, and cold-start cost
// collapses to header + section-table validation (see bench/index_load).
//
// MappedIndex::open shares its header/section-table parser and its section
// list with load_index (index_io.cpp). When the file cannot be mapped (open,
// fstat or mmap fails) it falls back to the owned stream loader, so callers
// never need a second path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/index/index_io.h"

namespace pim::index {

struct MappedIndexOptions {
  /// Verify every section's FNV-1a checksum at open. Costs one sequential
  /// pass over the file; catches on-disk corruption before it becomes a
  /// wrong alignment. Off = trust the artifact, open in O(header).
  bool verify_checksums = true;
};

/// RAII owner of one mapped index artifact: the mapping and the FmIndex
/// borrowing from it live and die as one unit. Move-only.
class MappedIndex {
 public:
  MappedIndex() = default;
  ~MappedIndex();
  MappedIndex(MappedIndex&& other) noexcept;
  MappedIndex& operator=(MappedIndex&& other) noexcept;
  MappedIndex(const MappedIndex&) = delete;
  MappedIndex& operator=(const MappedIndex&) = delete;

  /// Open and validate an artifact. Throws std::runtime_error (same error
  /// vocabulary as load_index: names the failing section) on a corrupt or
  /// foreign file. When `metrics` is set, publishes index.load.map_ms
  /// (mapped path) — the stream fallback publishes the index.load.* metrics
  /// of load_index instead.
  static MappedIndex open(const std::string& path,
                          const MappedIndexOptions& options = {},
                          obs::MetricsRegistry* metrics = nullptr);

  const FmIndex& index() const { return loaded_.index; }
  const genome::PackedSequence& reference() const {
    return loaded_.reference();
  }
  const std::vector<genome::Chromosome>& chromosomes() const {
    return loaded_.chromosomes;
  }

  /// True when the index borrows an mmap region; false on the stream-load
  /// fallback (owned structures).
  bool mapped() const { return map_base_ != nullptr; }

  /// Bytes this index keeps addressable: the mapping size when mapped
  /// (an upper bound on residency — pages fault in on demand), else the
  /// owned structures' heap bytes. The cache accounts residency with this.
  std::uint64_t resident_bytes() const;

 private:
  LoadedIndex loaded_;
  void* map_base_ = nullptr;
  std::size_t map_bytes_ = 0;

  void unmap() noexcept;
};

}  // namespace pim::index
