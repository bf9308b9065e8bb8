// The artifact writer and its one reader. Every consumer — the stream
// loader, MappedIndex and inspect_index_file — validates the header and
// section table through detail::parse_layout, and the stream and mapped
// loaders fetch the payloads through one SectionSource and one section list
// (fetch_sections) before one assemble step builds the FmIndex.
#include "src/index/index_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/index/mapped_index.h"

namespace pim::index {

namespace detail {

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

const char* section_name(SectionId id) {
  switch (id) {
    case SectionId::kReference:
      return "reference";
    case SectionId::kBwt:
      return "bwt";
    case SectionId::kMarkers:
      return "markers";
    case SectionId::kSaSamples:
      return "sa-samples";
    case SectionId::kSaRows:
      return "sa-rows";
    case SectionId::kSaRanks:
      return "sa-ranks";
    case SectionId::kChromosomes:
      return "chromosomes";
  }
  return "unknown";
}

}  // namespace detail

namespace {

using detail::ArtifactLayout;
using detail::FileHeaderV2;
using detail::fnv1a;
using detail::kFnvOffset;
using detail::SectionEntry;
using detail::SectionId;
using detail::section_name;

// The header and entries are written/read/mapped verbatim, so their layout
// is part of the on-disk format: no implicit padding allowed.
static_assert(sizeof(FileHeaderV2) == 120);
static_assert(sizeof(SectionEntry) == 32);
static_assert(std::is_trivially_copyable_v<FileHeaderV2>);
static_assert(std::is_trivially_copyable_v<SectionEntry>);

constexpr std::uint32_t kMaxSections = 64;
constexpr std::uint64_t kMaxChromosomes = 1ULL << 20;
constexpr std::uint64_t kMaxChromosomeName = 1ULL << 16;

constexpr std::uint64_t pad8(std::uint64_t bytes) { return (bytes + 7) & ~7ULL; }

/// Bytes before the first section: header, entries, table checksum.
constexpr std::uint64_t table_end(std::uint64_t num_sections) {
  return sizeof(FileHeaderV2) + num_sections * sizeof(SectionEntry) +
         sizeof(std::uint64_t);
}

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("index_io: " + message);
}

[[noreturn]] void fail_section(SectionId id, const std::string& message) {
  fail("section '" + std::string(section_name(id)) + "': " + message);
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void write_raw(std::ostream& out, const void* data, std::size_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  if (!out) fail("write failed");
}

// ---------------------------------------------------------------------------
// Chromosome section codec.
//
// Payload: u64 count, then per chromosome { u64 offset, u64 length,
// u64 name_len, name bytes zero-padded to 8 }.

std::vector<unsigned char> encode_chromosomes(
    const std::vector<genome::Chromosome>& chromosomes) {
  std::vector<unsigned char> out;
  const auto append_u64 = [&out](std::uint64_t v) {
    unsigned char bytes[8];
    std::memcpy(bytes, &v, 8);
    out.insert(out.end(), bytes, bytes + 8);
  };
  append_u64(chromosomes.size());
  for (const auto& chrom : chromosomes) {
    if (chrom.name.size() > kMaxChromosomeName) {
      throw std::invalid_argument("save_index: chromosome name too long");
    }
    append_u64(chrom.offset);
    append_u64(chrom.length);
    append_u64(chrom.name.size());
    out.insert(out.end(), chrom.name.begin(), chrom.name.end());
    out.resize(pad8(out.size()), 0);
  }
  return out;
}

std::vector<genome::Chromosome> parse_chromosomes(
    const util::Storage<unsigned char>& payload) {
  const unsigned char* data = payload.data();
  const std::size_t bytes = payload.size();
  std::size_t pos = 0;
  const auto take_u64 = [&](std::uint64_t& out) {
    if (bytes - pos < 8) {
      fail_section(SectionId::kChromosomes, "malformed payload");
    }
    std::memcpy(&out, data + pos, 8);
    pos += 8;
  };
  std::uint64_t count = 0;
  take_u64(count);
  if (count > kMaxChromosomes) {
    fail_section(SectionId::kChromosomes, "implausible chromosome count");
  }
  std::vector<genome::Chromosome> chromosomes;
  chromosomes.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    genome::Chromosome chrom;
    std::uint64_t name_len = 0;
    take_u64(chrom.offset);
    take_u64(chrom.length);
    take_u64(name_len);
    if (name_len > kMaxChromosomeName || bytes - pos < pad8(name_len)) {
      fail_section(SectionId::kChromosomes, "malformed payload");
    }
    chrom.name.assign(reinterpret_cast<const char*>(data + pos),
                      static_cast<std::size_t>(name_len));
    pos += static_cast<std::size_t>(pad8(name_len));
    chromosomes.push_back(std::move(chrom));
  }
  return chromosomes;
}

struct SectionPayload {
  SectionId id;
  const void* data;
  std::uint64_t bytes;
};

void check_save_args(const genome::PackedSequence& reference,
                     const std::vector<genome::Chromosome>& chromosomes) {
  if (reference.empty()) {
    throw std::invalid_argument("save_index: empty reference");
  }
  if (!chromosomes.empty()) {
    genome::validate_chromosomes(chromosomes, reference.size());
  }
}

// ---------------------------------------------------------------------------
// Layout validation: the part of parse_layout that runs once the header and
// table are known to be intact.

constexpr std::uint64_t words_for_bases(std::uint64_t bases) {
  return (bases + 31) / 32;
}
constexpr std::uint64_t words_for_bits(std::uint64_t bits) {
  return (bits + 63) / 64;
}

// ---------------------------------------------------------------------------
// The SA sections. The index keeps the full SA (sample rate 1), so
// sa-samples is SA[0..n] and the sa-rows / sa-ranks sections are fixed by
// the row count: every row marked, and rank block b (one per 512 rows,
// plus a total) counting min(512 * b, rows) marked rows before it. The
// writer emits that form and both loaders require it, then drop it.

constexpr std::uint64_t kRankBlockBits = 512;

constexpr std::uint64_t sa_rank_blocks(std::uint64_t rows) {
  return rows / kRankBlockBits + 2;
}

/// Word `i` of the sa-rows bitmap: all ones, the last word's tail bits zero.
constexpr std::uint64_t sa_row_word(std::uint64_t rows, std::uint64_t i) {
  const std::uint64_t tail = rows % 64;
  return i + 1 == words_for_bits(rows) && tail != 0 ? (1ULL << tail) - 1
                                                   : ~0ULL;
}

/// Entry `b` of the sa-ranks directory.
constexpr std::uint32_t sa_rank_block(std::uint64_t rows, std::uint64_t b) {
  return static_cast<std::uint32_t>(std::min(b * kRankBlockBits, rows));
}

/// The loaders' check of the two sections (parse_layout has fixed their
/// sizes). Takes them by value, so a loaded artifact drops them here.
void check_sa_marks(util::Storage<std::uint64_t> row_words,
                    util::Storage<std::uint32_t> ranks, std::uint64_t rows) {
  for (std::size_t i = 0; i < row_words.size(); ++i) {
    if (row_words[i] != sa_row_word(rows, i)) {
      fail_section(SectionId::kSaRows,
                   "unmarked rows in word " + std::to_string(i));
    }
  }
  for (std::size_t b = 0; b < ranks.size(); ++b) {
    if (ranks[b] != sa_rank_block(rows, b)) {
      fail_section(SectionId::kSaRanks, "rank block " + std::to_string(b) +
                                            " inconsistent with header");
    }
  }
}

void check_layout(const FileHeaderV2& header,
                  const std::vector<SectionEntry>& entries,
                  std::uint64_t actual_file_bytes) {
  if (header.reference_bases == 0) {
    fail_section(SectionId::kReference, "zero-length reference");
  }
  if (header.file_bytes > actual_file_bytes) fail("truncated file");

  const std::uint64_t n = header.reference_bases;
  const std::uint64_t rows = n + 1;
  const std::uint64_t d = header.bucket_width;
  if (d == 0) fail("zero marker bucket width");
  if (header.sa_sample_rate != 1) {
    fail("unsupported SA sample rate " +
         std::to_string(header.sa_sample_rate));
  }
  if (header.primary >= rows) fail("primary row out of range");

  std::array<bool, 8> seen{};
  std::uint64_t cursor = table_end(entries.size());
  for (const auto& entry : entries) {
    if (entry.id == 0 || entry.id > static_cast<std::uint32_t>(
                                        SectionId::kChromosomes)) {
      fail("unknown section id " + std::to_string(entry.id));
    }
    const auto id = static_cast<SectionId>(entry.id);
    if (seen[entry.id]) fail_section(id, "duplicate section");
    seen[entry.id] = true;
    if (entry.offset % 8 != 0) fail_section(id, "misaligned offset");
    if (entry.offset < cursor) fail_section(id, "overlapping sections");
    if (entry.payload_bytes > header.file_bytes ||
        entry.offset > header.file_bytes - entry.payload_bytes) {
      fail_section(id, "truncated");
    }
    cursor = entry.offset + pad8(entry.payload_bytes);

    // Fixed-geometry sections must match the header exactly; a mismatch
    // means the file is internally inconsistent even if every checksum
    // passes.
    std::uint64_t expected = std::numeric_limits<std::uint64_t>::max();
    switch (id) {
      case SectionId::kReference:
        expected = words_for_bases(n) * 8;
        break;
      case SectionId::kBwt:
        expected = words_for_bases(rows) * 8;
        break;
      case SectionId::kMarkers:
        expected = (rows / d + 1) * sizeof(OccCheckpoint);
        break;
      case SectionId::kSaRows:
        expected = words_for_bits(rows) * 8;
        break;
      case SectionId::kSaRanks:
        expected = sa_rank_blocks(rows) * sizeof(std::uint32_t);
        break;
      case SectionId::kSaSamples:
        expected = rows * sizeof(std::uint32_t);
        break;
      case SectionId::kChromosomes:
        if (entry.payload_bytes < sizeof(std::uint64_t)) {
          fail_section(id, "malformed payload size");
        }
        break;
    }
    if (expected != std::numeric_limits<std::uint64_t>::max() &&
        entry.payload_bytes != expected) {
      fail_section(id, "payload size inconsistent with header");
    }
  }
  for (std::uint32_t id = 1;
       id <= static_cast<std::uint32_t>(SectionId::kChromosomes); ++id) {
    if (!seen[id]) {
      fail_section(static_cast<SectionId>(id), "missing section");
    }
  }
}

}  // namespace

namespace detail {

ArtifactLayout parse_layout(std::span<const unsigned char> prefix,
                            std::optional<std::uint64_t> file_bytes) {
  ArtifactLayout layout;
  FileHeaderV2& header = layout.header;
  if (prefix.size() < 2 * sizeof(std::uint32_t)) fail("truncated file");
  std::memcpy(&header, prefix.data(), std::min(prefix.size(), sizeof(header)));
  if (header.magic != kIndexMagic) {
    fail("bad magic (not a PIM-Aligner index)");
  }
  if (header.version != kIndexVersion) fail("unsupported index version");
  if (prefix.size() < sizeof(header)) fail("truncated file");
  if (header.header_bytes != sizeof(FileHeaderV2)) {
    fail("header size mismatch");
  }
  // header_checksum is the last field: it covers every byte before it.
  if (fnv1a(kFnvOffset, &header, sizeof(header) - sizeof(std::uint64_t)) !=
      header.header_checksum) {
    fail("header checksum mismatch");
  }
  if (header.num_sections == 0 || header.num_sections > kMaxSections) {
    fail("implausible section count");
  }
  if (prefix.size() < table_end(header.num_sections)) fail("truncated file");
  const std::size_t table_bytes = header.num_sections * sizeof(SectionEntry);
  layout.entries.resize(header.num_sections);
  std::memcpy(layout.entries.data(), prefix.data() + sizeof(header),
              table_bytes);
  std::uint64_t stored_table_checksum = 0;
  std::memcpy(&stored_table_checksum,
              prefix.data() + sizeof(header) + table_bytes,
              sizeof(stored_table_checksum));
  if (fnv1a(kFnvOffset, layout.entries.data(), table_bytes) !=
      stored_table_checksum) {
    fail("section table checksum mismatch");
  }
  check_layout(header, layout.entries, file_bytes.value_or(header.file_bytes));
  return layout;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Writer.

void save_index(std::ostream& out, const FmIndex& index,
                const std::vector<genome::Chromosome>& chromosomes) {
  const genome::PackedSequence& reference = index.reference();
  check_save_args(reference, chromosomes);

  FileHeaderV2 header;
  header.magic = kIndexMagic;
  header.version = kIndexVersion;
  header.header_bytes = sizeof(FileHeaderV2);
  header.bucket_width = index.config().bucket_width;
  header.sa_sample_rate = 1;
  header.reference_bases = reference.size();
  header.primary = index.bwt().primary;
  for (std::size_t b = 0; b < genome::kNumBases; ++b) {
    const auto nt = static_cast<genome::Base>(b);
    header.counts[b] = index.counts().count(nt);
    header.occurrences[b] = index.counts().occurrences(nt);
  }

  const auto chrom_payload = encode_chromosomes(chromosomes);
  const auto ref_words = reference.words();
  const auto bwt_words = index.bwt().symbols.words();
  const auto marker_rows = index.markers().rows();
  const auto sa = index.suffix_array();
  const std::uint64_t rows = sa.size();
  std::vector<std::uint64_t> sa_row_words(words_for_bits(rows));
  for (std::size_t i = 0; i < sa_row_words.size(); ++i) {
    sa_row_words[i] = sa_row_word(rows, i);
  }
  std::vector<std::uint32_t> sa_ranks(sa_rank_blocks(rows));
  for (std::size_t b = 0; b < sa_ranks.size(); ++b) {
    sa_ranks[b] = sa_rank_block(rows, b);
  }
  const std::array<SectionPayload, 7> payloads = {{
      {SectionId::kReference, ref_words.data(), ref_words.size_bytes()},
      {SectionId::kBwt, bwt_words.data(), bwt_words.size_bytes()},
      {SectionId::kMarkers, marker_rows.data(), marker_rows.size_bytes()},
      {SectionId::kSaSamples, sa.data(), sa.size_bytes()},
      {SectionId::kSaRows, sa_row_words.data(),
       sa_row_words.size() * sizeof(std::uint64_t)},
      {SectionId::kSaRanks, sa_ranks.data(),
       sa_ranks.size() * sizeof(std::uint32_t)},
      {SectionId::kChromosomes, chrom_payload.data(), chrom_payload.size()},
  }};
  header.num_sections = static_cast<std::uint32_t>(payloads.size());

  std::array<SectionEntry, 7> table{};
  std::uint64_t offset = table_end(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    table[i].id = static_cast<std::uint32_t>(payloads[i].id);
    table[i].offset = offset;
    table[i].payload_bytes = payloads[i].bytes;
    table[i].checksum = fnv1a(kFnvOffset, payloads[i].data, payloads[i].bytes);
    offset += pad8(payloads[i].bytes);
  }
  header.file_bytes = offset;
  header.header_checksum = fnv1a(kFnvOffset, &header,
                                 sizeof(header) - sizeof(std::uint64_t));

  write_raw(out, &header, sizeof(header));
  write_raw(out, table.data(), table.size() * sizeof(SectionEntry));
  const std::uint64_t table_checksum =
      fnv1a(kFnvOffset, table.data(), table.size() * sizeof(SectionEntry));
  write_raw(out, &table_checksum, sizeof(table_checksum));
  static constexpr char kZeros[8] = {};
  for (const auto& payload : payloads) {
    write_raw(out, payload.data, payload.bytes);
    const auto padding = pad8(payload.bytes) - payload.bytes;
    if (padding != 0) write_raw(out, kZeros, padding);
  }
  out.flush();
  if (!out) fail("write failed");
}

void save_index_file(const std::string& path, const FmIndex& index,
                     const std::vector<genome::Chromosome>& chromosomes) {
  // Write a sibling temporary, then rename it over `path`. The rename is
  // atomic within a directory, so a process that still has the old artifact
  // mapped keeps reading the old file instead of faulting on a truncated one.
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::binary);
      if (!out) fail("cannot open " + tmp);
      save_index(out, index, chromosomes);
      out.close();
      if (!out) fail("write failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      fail("cannot rename " + tmp + " to " + path);
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

// ---------------------------------------------------------------------------
// Reader.

namespace {

// Sections are read this many bytes at a time, so a header that claims more
// than a stream holds cannot make the loader allocate it all up front. A
// multiple of every element size.
constexpr std::uint64_t kReadChunk = std::uint64_t{64} << 20;

/// Hands out section payloads in table order. A stream source reads each
/// one front to back into an owned buffer and always checks its checksum;
/// a mapped source borrows the bytes in place and checks on request.
class SectionSource {
 public:
  /// `in` has consumed the artifact's first `position` bytes.
  SectionSource(std::istream& in, std::uint64_t position)
      : in_(&in), position_(position) {}
  SectionSource(const unsigned char* base, bool verify)
      : base_(base), verify_(verify) {}

  template <typename T>
  util::Storage<T> fetch(const SectionEntry& entry) {
    const auto id = static_cast<SectionId>(entry.id);
    if (base_ != nullptr) {
      const unsigned char* data = base_ + entry.offset;
      if (verify_) check(entry, data);
      return util::Storage<T>::borrowed(
          reinterpret_cast<const T*>(data),
          static_cast<std::size_t>(entry.payload_bytes / sizeof(T)));
    }
    // parse_layout keeps offsets increasing in table order, so the gap
    // before this section is never negative.
    const auto gap = static_cast<std::streamsize>(entry.offset - position_);
    in_->ignore(gap);
    if (in_->gcount() != gap) fail_section(id, "truncated");
    std::vector<T> buffer;
    for (std::uint64_t done = 0; done < entry.payload_bytes;) {
      const std::uint64_t chunk =
          std::min(entry.payload_bytes - done, kReadChunk);
      buffer.resize(static_cast<std::size_t>((done + chunk) / sizeof(T)));
      const auto want = static_cast<std::streamsize>(chunk);
      in_->read(reinterpret_cast<char*>(buffer.data()) + done, want);
      if (in_->gcount() != want) fail_section(id, "truncated");
      done += chunk;
    }
    position_ = entry.offset + entry.payload_bytes;
    check(entry, buffer.data());
    return util::Storage<T>(std::move(buffer));
  }

 private:
  static void check(const SectionEntry& entry, const void* data) {
    if (fnv1a(kFnvOffset, data, static_cast<std::size_t>(
                                    entry.payload_bytes)) != entry.checksum) {
      fail_section(static_cast<SectionId>(entry.id), "checksum mismatch");
    }
  }

  std::istream* in_ = nullptr;
  std::uint64_t position_ = 0;
  const unsigned char* base_ = nullptr;
  bool verify_ = true;
};

/// The seven payloads of an artifact, typed as the index structures hold
/// them.
struct Sections {
  util::Storage<std::uint64_t> reference_words;
  util::Storage<std::uint64_t> bwt_words;
  util::Storage<OccCheckpoint> markers;
  util::Storage<std::uint32_t> sa_samples;
  util::Storage<std::uint64_t> sa_row_words;
  util::Storage<std::uint32_t> sa_ranks;
  std::vector<genome::Chromosome> chromosomes;
};

/// The one section list. Walks the table in its own order, so a stream
/// source never seeks backwards.
Sections fetch_sections(const ArtifactLayout& layout, SectionSource& source) {
  Sections sections;
  for (const auto& entry : layout.entries) {
    switch (static_cast<SectionId>(entry.id)) {
      case SectionId::kReference:
        sections.reference_words = source.fetch<std::uint64_t>(entry);
        break;
      case SectionId::kBwt:
        sections.bwt_words = source.fetch<std::uint64_t>(entry);
        break;
      case SectionId::kMarkers:
        sections.markers = source.fetch<OccCheckpoint>(entry);
        break;
      case SectionId::kSaSamples:
        sections.sa_samples = source.fetch<std::uint32_t>(entry);
        break;
      case SectionId::kSaRows:
        sections.sa_row_words = source.fetch<std::uint64_t>(entry);
        break;
      case SectionId::kSaRanks:
        sections.sa_ranks = source.fetch<std::uint32_t>(entry);
        break;
      case SectionId::kChromosomes:
        sections.chromosomes =
            parse_chromosomes(source.fetch<unsigned char>(entry));
        break;
    }
  }
  return sections;
}

/// Builds the FmIndex from fetched sections (owned or borrowed).
LoadedIndex assemble(const FileHeaderV2& header, Sections sections) {
  const std::uint64_t n = header.reference_bases;
  const std::uint64_t rows = n + 1;
  check_sa_marks(std::move(sections.sa_row_words),
                 std::move(sections.sa_ranks), rows);
  if (!sections.chromosomes.empty()) {
    try {
      genome::validate_chromosomes(sections.chromosomes, n);
    } catch (const std::invalid_argument& e) {
      fail_section(SectionId::kChromosomes, e.what());
    }
  }
  try {
    LoadedIndex loaded;
    auto reference = genome::PackedSequence::from_words(
        std::move(sections.reference_words), static_cast<std::size_t>(n));
    Bwt bwt;
    bwt.symbols = genome::PackedSequence::from_words(
        std::move(sections.bwt_words), static_cast<std::size_t>(rows));
    bwt.primary = header.primary;
    std::array<std::uint64_t, genome::kNumBases> counts{};
    std::array<std::uint64_t, genome::kNumBases> occurrences{};
    for (std::size_t b = 0; b < genome::kNumBases; ++b) {
      counts[b] = header.counts[b];
      occurrences[b] = header.occurrences[b];
    }
    loaded.index = FmIndex::from_parts(
        {.bucket_width = header.bucket_width}, std::move(reference),
        std::move(bwt), CountTable(counts, occurrences),
        MarkerTable::from_parts(header.bucket_width,
                                std::move(sections.markers)),
        std::move(sections.sa_samples));
    loaded.chromosomes = std::move(sections.chromosomes);
    return loaded;
  } catch (const std::logic_error& e) {
    // A structurally inconsistent (but checksummed) artifact is an I/O-level
    // corruption from the caller's point of view: an invalid_argument from a
    // from_parts check, or an out_of_range from the k-mer table build
    // walking corrupt marker rows.
    fail(std::string("inconsistent index structure: ") + e.what());
  }
}

/// Reads the header and the section table it declares, then parses them.
/// The stream is left just past the table.
ArtifactLayout read_layout(std::istream& in) {
  std::vector<unsigned char> prefix(sizeof(FileHeaderV2));
  in.read(reinterpret_cast<char*>(prefix.data()), sizeof(FileHeaderV2));
  prefix.resize(static_cast<std::size_t>(in.gcount()));
  if (prefix.size() == sizeof(FileHeaderV2)) {
    FileHeaderV2 header;
    std::memcpy(&header, prefix.data(), sizeof(header));
    // Clamped, so a corrupt count reads a bounded table; parse_layout then
    // rejects the count itself.
    const auto want = static_cast<std::streamsize>(
        table_end(std::min(header.num_sections, kMaxSections)) -
        sizeof(FileHeaderV2));
    prefix.resize(sizeof(FileHeaderV2) + static_cast<std::size_t>(want));
    in.read(reinterpret_cast<char*>(prefix.data()) + sizeof(FileHeaderV2),
            want);
    prefix.resize(sizeof(FileHeaderV2) +
                  static_cast<std::size_t>(in.gcount()));
  }
  return detail::parse_layout(prefix, std::nullopt);
}

/// A whole file mapped read-only. `base` stays null when open, fstat or
/// mmap fails (mmap refuses an empty file). Unmaps on destruction unless
/// released.
struct Mapping {
  void* base = nullptr;
  std::size_t bytes = 0;

  explicit Mapping(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return;
    struct stat st{};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      const auto size = static_cast<std::size_t>(st.st_size);
      void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (mapped != MAP_FAILED) {
        base = mapped;
        bytes = size;
      }
    }
    ::close(fd);  // The mapping keeps the file alive.
  }
  ~Mapping() {
    if (base != nullptr) ::munmap(base, bytes);
  }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  const unsigned char* data() const {
    return static_cast<const unsigned char*>(base);
  }
  void* release() { return std::exchange(base, nullptr); }
};

}  // namespace

LoadedIndex load_index(std::istream& in, obs::MetricsRegistry* metrics) {
  const auto start = std::chrono::steady_clock::now();
  const ArtifactLayout layout = read_layout(in);
  const auto read_start = std::chrono::steady_clock::now();
  SectionSource source(in, table_end(layout.entries.size()));
  Sections sections = fetch_sections(layout, source);
  if (metrics != nullptr) {
    metrics->histogram("index.load.read_ms").observe(ms_since(read_start));
  }
  LoadedIndex loaded = assemble(layout.header, std::move(sections));
  if (metrics != nullptr) {
    metrics->histogram("index.load.stream_ms").observe(ms_since(start));
  }
  return loaded;
}

LoadedIndex load_index_file(const std::string& path,
                            obs::MetricsRegistry* metrics) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  return load_index(in, metrics);
}

IndexFileInfo inspect_index_file(const std::string& path) {
  const Mapping map(path);
  if (map.base == nullptr) {
    // A file that opens but will not map is, in practice, an empty one.
    fail(std::ifstream(path) ? "truncated file" : "cannot open " + path);
  }
  const ArtifactLayout layout =
      detail::parse_layout({map.data(), map.bytes}, map.bytes);

  IndexFileInfo info;
  info.version = layout.header.version;
  info.bucket_width = layout.header.bucket_width;
  info.reference_bases = layout.header.reference_bases;
  info.file_bytes = layout.header.file_bytes;
  SectionSource source(map.data(), /*verify=*/true);
  for (const auto& entry : layout.entries) {
    const auto id = static_cast<SectionId>(entry.id);
    info.sections.push_back(
        {section_name(id), entry.offset, entry.payload_bytes, entry.checksum});
    if (id == SectionId::kChromosomes) {
      info.num_chromosomes =
          parse_chromosomes(source.fetch<unsigned char>(entry)).size();
    }
  }
  return info;
}

// ---------------------------------------------------------------------------
// MappedIndex.

MappedIndex::~MappedIndex() { unmap(); }

MappedIndex::MappedIndex(MappedIndex&& other) noexcept
    : loaded_(std::move(other.loaded_)),
      map_base_(std::exchange(other.map_base_, nullptr)),
      map_bytes_(std::exchange(other.map_bytes_, 0)) {}

MappedIndex& MappedIndex::operator=(MappedIndex&& other) noexcept {
  if (this != &other) {
    unmap();
    // The borrowed structures point into the mapping, not into `other`, so
    // moving the LoadedIndex cannot dangle.
    loaded_ = std::move(other.loaded_);
    map_base_ = std::exchange(other.map_base_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
  }
  return *this;
}

void MappedIndex::unmap() noexcept {
  if (map_base_ != nullptr) {
    // Drop the borrowing structures before the region they borrow.
    loaded_ = LoadedIndex{};
    ::munmap(map_base_, map_bytes_);
    map_base_ = nullptr;
    map_bytes_ = 0;
  }
}

std::uint64_t MappedIndex::resident_bytes() const {
  if (mapped()) return map_bytes_;
  return loaded_.reference().memory_bytes() +
         loaded_.index.memory_footprint().total();
}

MappedIndex MappedIndex::open(const std::string& path,
                              const MappedIndexOptions& options,
                              obs::MetricsRegistry* metrics) {
  const auto start = std::chrono::steady_clock::now();
  Mapping map(path);
  MappedIndex result;
  if (map.base == nullptr) {
    // The file could not be mapped: the stream loader reads it, or names
    // why it cannot (a missing or empty file).
    result.loaded_ = load_index_file(path, metrics);
    return result;
  }
  const ArtifactLayout layout =
      detail::parse_layout({map.data(), map.bytes}, map.bytes);
  SectionSource source(map.data(), options.verify_checksums);
  Sections sections = fetch_sections(layout, source);

  // Index lookups are random-access by nature (backward search hops across
  // the BWT, locate across the SA); default readahead would fault in
  // ~128 KB per touch and balloon RSS far past the working set. Advised
  // after the sections are fetched so the sequential checksum pass still
  // enjoyed readahead, and before assemble builds the k-mer table.
  (void)::madvise(map.base, map.bytes, MADV_RANDOM);
#ifdef MADV_NOHUGEPAGE
  // Likewise decline huge-folio mapping: one random locate should not make
  // 2 MB of the SA resident.
  (void)::madvise(map.base, map.bytes, MADV_NOHUGEPAGE);
#endif

  result.loaded_ = assemble(layout.header, std::move(sections));
  result.map_bytes_ = map.bytes;
  result.map_base_ = map.release();
  if (metrics != nullptr) {
    metrics->histogram("index.load.map_ms").observe(ms_since(start));
  }
  return result;
}

}  // namespace pim::index
