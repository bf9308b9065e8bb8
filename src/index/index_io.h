// Binary serialization of the FM-index — format v2 (S42).
//
// Index construction is the one-time pre-computation of Fig. 2; production
// aligners build once and reuse. Format v2 stores *every* persisted
// structure the paper names (BWT, Marker Table, SA) plus the packed
// reference and a per-chromosome table, laid out as 8-byte-aligned,
// length-prefixed, checksummed sections so that
//
//   * a corrupt or foreign file fails loudly, naming the failing section;
//   * every table is directly mappable in place: MappedIndex (see
//     mapped_index.h) mmaps the file and assembles an FmIndex whose
//     structures *borrow* the mapped bytes — zero copies, instant start,
//     page sharing across server processes.
//
// Layout (little-endian, all section offsets 8-byte aligned):
//
//   FileHeaderV2   magic/version/sizes, FM config, n, primary,
//                  Count table, header checksum
//   SectionEntry[] id, offset, payload bytes, FNV-1a checksum
//                  (+ trailing table checksum)
//   sections       reference | bwt | markers | sa-samples | sa-rows |
//                  sa-ranks | chromosomes   (zero-padded to 8 bytes)
//
// The index keeps the full SA, so the header's sa_sample_rate is always 1,
// sa-samples is SA[0..n] as u32, and sa-rows / sa-ranks are fixed by n
// (every row marked, and the matching rank directory). The writer emits
// them from n; both loaders check them and drop them.
//
// One reader serves every consumer: detail::parse_layout validates the
// header and section table for load_index, MappedIndex::open and
// inspect_index_file alike, and one section list assembles the FmIndex from
// either owned (stream) or borrowed (mapped) payloads.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/genome/multi_reference.h"
#include "src/index/fm_index.h"
#include "src/obs/metrics.h"

namespace pim::index {

inline constexpr std::uint32_t kIndexMagic = 0x50494D41;  // "PIMA"
inline constexpr std::uint32_t kIndexVersion = 2;

/// Serialize to a binary stream in format v2; the reference section is
/// index.reference(). `chromosomes` (optional) is the per-chromosome
/// coordinate table of a MultiReference the index was built over; pass
/// multi.chromosomes() to make the artifact round-trip a multi-reference.
/// Throws std::runtime_error on I/O failure, std::invalid_argument on an
/// empty reference or a chromosome table that does not tile the reference
/// (genome::validate_chromosomes).
void save_index(std::ostream& out, const FmIndex& index,
                const std::vector<genome::Chromosome>& chromosomes = {});
/// File form of save_index. Writes `path`.tmp and renames it over `path`,
/// so a reader that has the old artifact mapped keeps a valid mapping.
void save_index_file(const std::string& path, const FmIndex& index,
                     const std::vector<genome::Chromosome>& chromosomes = {});

struct LoadedIndex {
  FmIndex index;
  /// Per-chromosome table; empty when the artifact stored none. A stored
  /// table always tiles reference() (both loaders validate it).
  std::vector<genome::Chromosome> chromosomes;

  /// The reference the index carries; the loader keeps no second copy.
  const genome::PackedSequence& reference() const { return index.reference(); }
};

/// Deserialize into owned structures. Reads the stream front to back
/// exactly once (no seeking), so pipes and other non-seekable sources
/// work. Throws std::runtime_error naming the failing section on bad magic,
/// unsupported version, truncation, size inconsistency, or checksum
/// failure.
///
/// When `metrics` is set, the load publishes its cost split so cold-start
/// claims are observable rather than asserted (see bench/index_load):
///   index.load.read_ms     — time spent reading + checksumming sections
///   index.load.stream_ms   — total stream-load wall time
LoadedIndex load_index(std::istream& in,
                       obs::MetricsRegistry* metrics = nullptr);
LoadedIndex load_index_file(const std::string& path,
                            obs::MetricsRegistry* metrics = nullptr);

/// Section descriptor of an artifact, for inspect/verify tooling.
struct IndexSectionInfo {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
};

struct IndexFileInfo {
  std::uint32_t version = 0;
  std::uint32_t bucket_width = 0;
  std::uint64_t reference_bases = 0;
  std::uint64_t file_bytes = 0;
  std::size_t num_chromosomes = 0;
  std::vector<IndexSectionInfo> sections;
};

/// Parse the header and section table without loading payloads (only the
/// chromosome section is read and checksummed, to count its records).
/// Validates header integrity but not the other payloads — use load_index
/// / MappedIndex::open with verification for that.
IndexFileInfo inspect_index_file(const std::string& path);

namespace detail {

/// FNV-1a over a byte range; the checksum every section carries.
std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t bytes);
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// Fixed v2 file header. Trivially copyable — written/read/mapped verbatim.
struct FileHeaderV2 {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t header_bytes = 0;  ///< sizeof(FileHeaderV2), extension room.
  std::uint64_t file_bytes = 0;    ///< Total artifact size, for bounds checks.
  std::uint32_t bucket_width = 0;
  std::uint32_t sa_sample_rate = 0;   ///< Always 1: the full SA.
  std::uint64_t reference_bases = 0;  ///< n; BWT rows are n+1.
  std::uint32_t primary = 0;          ///< Sentinel row of the BWT.
  std::uint32_t num_sections = 0;
  std::uint64_t counts[genome::kNumBases] = {};       ///< Count table.
  std::uint64_t occurrences[genome::kNumBases] = {};  ///< Base tallies.
  std::uint64_t header_checksum = 0;  ///< FNV-1a over all preceding bytes.
};
static_assert(sizeof(FileHeaderV2) % 8 == 0);

enum class SectionId : std::uint32_t {
  kReference = 1,
  kBwt = 2,
  kMarkers = 3,
  kSaSamples = 4,
  kSaRows = 5,
  kSaRanks = 6,
  kChromosomes = 7,
};

struct SectionEntry {
  std::uint32_t id = 0;
  std::uint32_t reserved = 0;
  std::uint64_t offset = 0;         ///< From file start; 8-byte aligned.
  std::uint64_t payload_bytes = 0;  ///< Unpadded payload length.
  std::uint64_t checksum = 0;       ///< FNV-1a over the payload bytes.
};
static_assert(sizeof(SectionEntry) % 8 == 0);

const char* section_name(SectionId id);

struct ArtifactLayout {
  FileHeaderV2 header;
  std::vector<SectionEntry> entries;  ///< In table order.
};

/// The one header + section-table parser. `prefix` holds the artifact's
/// first bytes (at least the header and the table it declares, else
/// "truncated file"); `file_bytes` is the artifact's actual size, or
/// nullopt when the source cannot tell (a stream), which then trusts the
/// header's own size and finds truncation while reading. Checks, in
/// order: magic, version, header_bytes, header checksum, section count,
/// table checksum, then the layout (sizes, alignment, bounds, order, and
/// each section's geometry against the header). Throws std::runtime_error
/// naming the failing piece.
ArtifactLayout parse_layout(std::span<const unsigned char> prefix,
                            std::optional<std::uint64_t> file_bytes);

}  // namespace detail

}  // namespace pim::index
