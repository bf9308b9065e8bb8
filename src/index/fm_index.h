// FM-index facade — ties together BWT, Count, Marker Table and suffix array
// into the structure Algorithm 1/2 and the PIM mapping layer consume.
//
// The three persisted structures match the paper exactly: BWT, MT, SA
// ("only BWT, Marker Table (MT), and SA will be stored in the memory").
// The full Occ table is never kept; occ() is always computed as
// marker + count_match, the decomposition the hardware executes. The SA is
// kept whole, as the paper keeps it: locate(row) reads one 32-bit word,
// which is what the simulated platform charges per located row.
//
// The index also carries the 2-bit-packed reference it was built over
// (owned after a build, borrowed from a mapped artifact after a load).
// The host uses it to finish an exact search whose interval is down to one
// row (finish_one_row); the paper's memory image, and memory_footprint(),
// stay BWT + MT + SA.
//
// Host-side, the index also keeps a k-mer interval table: for every k-mer,
// the SA interval backward search reaches after those k bases, so stage one
// starts k steps in (exact_start). It is derived from the other parts on
// every build and load, so the artifact format does not carry it.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/genome/packed_sequence.h"
#include "src/index/bwt.h"
#include "src/index/marker_table.h"
#include "src/index/occ_table.h"
#include "src/index/suffix_array.h"
#include "src/util/storage.h"

namespace pim::index {

/// Half-open SA interval [low, high): the suffixes sharing the current query
/// suffix as a prefix. `low < high` means the pattern (so far) occurs.
struct SaInterval {
  std::uint64_t low = 0;
  std::uint64_t high = 0;

  bool valid() const { return low < high; }
  std::uint64_t count() const { return valid() ? high - low : 0; }
  bool operator==(const SaInterval&) const = default;
};

/// Where stage one's backward search starts (FmIndex::exact_start): the
/// interval after the read's last `consumed` bases. When that interval is
/// empty, `passed_one_row` says whether the walk to it went through an
/// interval of exactly one row.
struct SearchStart {
  SaInterval interval;
  std::size_t consumed = 0;
  bool passed_one_row = false;
};

struct FmIndexConfig {
  /// Occ checkpoint spacing d. 128 bps = one sub-array row (paper default).
  std::uint32_t bucket_width = 128;
};

class FmIndex {
 public:
  FmIndex() = default;

  /// Build all structures from the reference. O(n) time via SA-IS.
  static FmIndex build(const genome::PackedSequence& reference,
                       const FmIndexConfig& config = {});

  /// Build from a pre-computed suffix array (e.g. deserialized): skips
  /// SA-IS, everything else is derived in O(n). The SA must be the
  /// sentinel-inclusive array of `reference` (size n+1). The index adopts
  /// it as its locate table, so pass it by move.
  static FmIndex build_from_sa(const genome::PackedSequence& reference,
                               SuffixArray sa,
                               const FmIndexConfig& config = {});

  /// Reassemble from persisted structures without rebuilding anything —
  /// the zero-copy load path (S42): every part, the reference text
  /// included, may borrow its buffers from a mapped index artifact.
  /// Performs structural consistency checks (text length, marker row
  /// count, SA length, primary in range) and throws
  /// std::invalid_argument on mismatch; it does NOT re-derive the parts, so
  /// a checksummed artifact is the integrity story.
  static FmIndex from_parts(const FmIndexConfig& config,
                            genome::PackedSequence reference, Bwt bwt,
                            CountTable counts, MarkerTable markers,
                            util::Storage<std::uint32_t> sa);

  /// Number of bases in the reference (n); BWT rows are n+1.
  std::uint64_t reference_size() const { return bwt_.size() - 1; }
  std::uint64_t num_rows() const { return bwt_.size(); }

  /// The packed reference the index was built over (n bases).
  const genome::PackedSequence& reference() const { return reference_; }

  const Bwt& bwt() const { return bwt_; }
  const CountTable& counts() const { return counts_; }
  const MarkerTable& markers() const { return markers_; }
  /// The sentinel-inclusive suffix array (num_rows() entries).
  std::span<const std::uint32_t> suffix_array() const { return sa_.span(); }
  const FmIndexConfig& config() const { return config_; }

  /// Occ(nt, i) — computed from the marker table (marker - Count + residual).
  std::uint64_t occ(genome::Base nt, std::size_t i) const {
    return markers_.lfm(bwt_, nt, i) - counts_.count(nt);
  }

  /// The LFM procedure: Count(nt) + Occ(nt, id).
  std::uint64_t lfm(genome::Base nt, std::size_t id) const {
    return markers_.lfm(bwt_, nt, id);
  }

  /// The whole-reference interval every backward search starts from.
  SaInterval whole_interval() const { return {0, num_rows()}; }

  /// LFM for all four bases at once: lfm4(id)[nt] == lfm(nt, id).
  BaseCounts lfm4(std::size_t id) const { return markers_.lfm4(bwt_, id); }

  /// One backward-extension step: prepend `nt` to the current pattern.
  SaInterval extend(const SaInterval& interval, genome::Base nt) const {
    return {lfm(nt, interval.low), lfm(nt, interval.high)};
  }

  /// Every backward-extension step at once (Algorithm 2's per-node fan-out):
  /// extend4(interval)[nt] == extend(interval, nt), from two lfm4 calls.
  std::array<SaInterval, genome::kNumBases> extend4(
      const SaInterval& interval) const {
    const BaseCounts low = lfm4(interval.low);
    const BaseCounts high = lfm4(interval.high);
    std::array<SaInterval, genome::kNumBases> next;
    for (std::size_t a = 0; a < genome::kNumBases; ++a) {
      next[a] = {low[a], high[a]};
    }
    return next;
  }

  /// Text position of SA row `row`: SA[row]. A loaded SA may be crafted,
  /// so this throws std::out_of_range for a row past num_rows() and
  /// std::runtime_error for a value past n.
  std::uint64_t locate(std::size_t row) const {
    if (row >= sa_.size()) fail_row(row);
    const std::uint64_t position = sa_[row];
    if (position >= sa_.size()) fail_position(row);
    return position;
  }

  /// All text positions in an interval, sorted ascending (the interval's
  /// contiguous SA entries, sorted).
  std::vector<std::uint64_t> locate_all(const SaInterval& interval) const;

  /// The `limit` smallest positions of the interval, ascending, into `out`
  /// (clear + append, reusing capacity); limit 0 keeps them all. Every row
  /// is still read through locate, so a crafted value past n throws even
  /// where it would not be kept. The engine hot path calls this once per
  /// located strand with a per-worker scratch buffer and the room left
  /// under its max_hits cut.
  void locate_all_into(const SaInterval& interval,
                       std::vector<std::uint64_t>& out,
                       std::size_t limit = 0) const;

  /// Finish a backward search whose interval `row` holds exactly one row
  /// while the read's first `prefix.size()` bases are still unmatched:
  /// locate the row's text position q and compare `prefix` with
  /// T[q - |prefix|, q) over the packed reference. `out` becomes
  /// {q - |prefix|} on a match and empty otherwise — the same answer as
  /// extending through `prefix` and locating the result.
  void finish_one_row(const SaInterval& row,
                      std::span<const genome::Base> prefix,
                      std::vector<std::uint64_t>& out) const;

  /// k of the k-mer interval table for a reference of n bases: the largest
  /// k <= 12 with 16 * 4^k <= n, so the 8-byte entries take at most n/2
  /// bytes; 0 (no table) below 64 bases and when the BWT rows do not fit
  /// the entries' 32-bit bounds.
  static std::uint32_t kmer_length_for(std::uint64_t n);

  /// This index's table k (kmer_length_for(reference_size())).
  std::uint32_t kmer_length() const { return kmer_length_; }

  /// Stage one's start for `read`. With m > k it is the table's entry for
  /// the read's last k bases: the interval Algorithm 1 reaches after k
  /// steps, with consumed = k, and for an empty one whether some shorter
  /// suffix had exactly one row. Otherwise it is the whole interval with
  /// nothing consumed.
  SearchStart exact_start(std::span<const genome::Base> read) const;

  /// Memory footprint of the persisted structures, for Fig. 10a-style
  /// accounting (scaled analytically to Hg19 in the chip model).
  struct MemoryFootprint {
    std::size_t bwt_bytes = 0;
    std::size_t marker_bytes = 0;
    std::size_t sa_bytes = 0;
    std::size_t total() const { return bwt_bytes + marker_bytes + sa_bytes; }
  };
  MemoryFootprint memory_footprint() const;

 private:
  /// One k-mer's interval in 32-bit bounds. high == 0 marks an empty one,
  /// whose `low` is the passed_one_row bit.
  struct KmerEntry {
    std::uint32_t low = 0;
    std::uint32_t high = 0;
  };

  /// Fill the table level by level: every level-l interval's extend4 gives
  /// its four level-(l+1) children.
  void build_kmer_table();

  [[noreturn]] static void fail_row(std::size_t row);
  [[noreturn]] static void fail_position(std::size_t row);

  FmIndexConfig config_;
  genome::PackedSequence reference_;
  Bwt bwt_;
  CountTable counts_;
  MarkerTable markers_;
  /// Owned after a build (SA-IS's output, adopted), borrowed after a
  /// mapped load.
  util::Storage<std::uint32_t> sa_;
  std::uint32_t kmer_length_ = 0;
  std::vector<KmerEntry> kmer_table_;  ///< 4^k entries, k-mer code order.
};

}  // namespace pim::index
