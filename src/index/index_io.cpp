#include "src/index/index_io.h"

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
// Legacy v1 helpers (sequential, whole-stream FNV trailer).

void write_bytes_v1(std::ostream& out, const void* data, std::size_t bytes,
                    std::uint64_t& hash) {
  write_raw(out, data, bytes);
  hash = fnv1a(hash, data, bytes);
}

void read_bytes_v1(std::istream& in, void* data, std::size_t bytes,
                   std::uint64_t& hash) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(in.gcount()) != bytes) fail("truncated file");
  hash = fnv1a(hash, data, bytes);
}

template <typename T>
void write_pod_v1(std::ostream& out, const T& value, std::uint64_t& hash) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_bytes_v1(out, &value, sizeof(T), hash);
}

template <typename T>
T read_pod_v1(std::istream& in, std::uint64_t& hash) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  read_bytes_v1(in, &value, sizeof(T), hash);
  return value;
}

// Loads the v1 body (everything after magic + version, which the dispatcher
// already consumed and folded into `hash`). v1 stores only reference + SA;
// the marker/count tables are REBUILT here — that rebuild dominates v1 load
// time and is why v2 exists. The split is published as
// index.load.read_ms / index.load.rebuild_ms.
LoadedIndex load_index_v1(std::istream& in, std::uint64_t hash,
                          obs::MetricsRegistry* metrics) {
  const auto read_start = std::chrono::steady_clock::now();
  FmIndexConfig config;
  config.bucket_width = read_pod_v1<std::uint32_t>(in, hash);
  config.sa_sample_rate = read_pod_v1<std::uint32_t>(in, hash);

  const auto n = read_pod_v1<std::uint64_t>(in, hash);
  if (n == 0) fail_section(SectionId::kReference, "zero-length reference");
  genome::PackedSequence reference;
  for (std::uint64_t i = 0; i < n; i += 32) {
    const auto word = read_pod_v1<std::uint64_t>(in, hash);
    for (std::uint64_t j = 0; j < 32 && i + j < n; ++j) {
      reference.push_back(static_cast<genome::Base>((word >> (2 * j)) & 0b11));
    }
  }

  const auto rows = read_pod_v1<std::uint64_t>(in, hash);
  if (rows != n + 1) fail("SA size inconsistent with reference");
  SuffixArray sa(rows);
  for (std::uint64_t row = 0; row < rows; ++row) {
    sa[row] = read_pod_v1<std::uint32_t>(in, hash);
  }

  const std::uint64_t expected = hash;
  std::uint64_t ignored = kFnvOffset;
  const auto stored = read_pod_v1<std::uint64_t>(in, ignored);
  if (stored != expected) fail("checksum mismatch (corrupt index)");
  const double read_ms = ms_since(read_start);

  const auto rebuild_start = std::chrono::steady_clock::now();
  LoadedIndex loaded;
  loaded.index = FmIndex::build_from_sa(reference, sa, config);
  if (metrics != nullptr) {
    metrics->histogram("index.load.read_ms").observe(read_ms);
    metrics->histogram("index.load.rebuild_ms").observe(ms_since(rebuild_start));
  }
  return loaded;
}

// ---------------------------------------------------------------------------
// v2 chromosome section codec.
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

// ---------------------------------------------------------------------------
// v2 writer.

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
// v2 expected geometry, shared by writer sanity and loader validation.

constexpr std::uint64_t words_for_bases(std::uint64_t bases) {
  return (bases + 31) / 32;
}
constexpr std::uint64_t words_for_bits(std::uint64_t bits) {
  return (bits + 63) / 64;
}

}  // namespace

namespace detail {

std::vector<SectionEntry> validate_v2_layout(const FileHeaderV2& header,
                                             const SectionEntry* table,
                                             std::uint64_t actual_file_bytes) {
  if (header.magic != kIndexMagic) {
    fail("bad magic (not a PIM-Aligner index)");
  }
  if (header.version != kIndexVersion) fail("unsupported index version");
  if (header.header_bytes != sizeof(FileHeaderV2)) {
    fail("header size mismatch");
  }
  {
    FileHeaderV2 copy = header;
    copy.header_checksum = 0;
    const auto sum =
        fnv1a(kFnvOffset, &copy, sizeof(copy) - sizeof(std::uint64_t));
    if (sum != header.header_checksum) fail("header checksum mismatch");
  }
  if (header.reference_bases == 0) {
    fail_section(SectionId::kReference, "zero-length reference");
  }
  if (header.num_sections == 0 || header.num_sections > kMaxSections) {
    fail("implausible section count");
  }
  if (header.file_bytes > actual_file_bytes) fail("truncated file");

  const std::uint64_t n = header.reference_bases;
  const std::uint64_t rows = n + 1;
  const std::uint64_t d = header.bucket_width;
  if (d == 0) fail("zero marker bucket width");
  if (header.sa_sample_rate == 0) fail("zero SA sample rate");
  if (header.primary >= rows) fail("primary row out of range");

  const std::uint64_t table_end =
      sizeof(FileHeaderV2) +
      std::uint64_t{header.num_sections} * sizeof(SectionEntry) +
      sizeof(std::uint64_t);

  std::vector<SectionEntry> entries(table, table + header.num_sections);
  std::array<bool, 8> seen{};
  std::uint64_t cursor = table_end;
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
        expected = (rows / SampledSuffixArray::kRankBlockBits + 2) *
                   sizeof(std::uint32_t);
        break;
      case SectionId::kSaSamples:
        // Sample count depends on the data (value-based sampling); require
        // well-formed u32 payload with at least row 0's sample.
        if (entry.payload_bytes % sizeof(std::uint32_t) != 0 ||
            entry.payload_bytes == 0) {
          fail_section(id, "malformed payload size");
        }
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
  return entries;
}

std::vector<genome::Chromosome> parse_chromosomes(const unsigned char* data,
                                                  std::size_t bytes) {
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

LoadedIndex assemble_v2(const FileHeaderV2& header,
                        util::Storage<std::uint64_t> reference_words,
                        util::Storage<std::uint64_t> bwt_words,
                        util::Storage<OccCheckpoint> markers,
                        util::Storage<std::uint32_t> sa_samples,
                        util::Storage<std::uint64_t> sa_row_words,
                        util::Storage<std::uint32_t> sa_ranks,
                        std::vector<genome::Chromosome> chromosomes) {
  const std::uint64_t n = header.reference_bases;
  const std::uint64_t rows = n + 1;
  if (!chromosomes.empty()) {
    try {
      genome::validate_chromosomes(chromosomes, n);
    } catch (const std::invalid_argument& e) {
      fail_section(SectionId::kChromosomes, e.what());
    }
  }
  try {
    LoadedIndex loaded;
    auto reference = genome::PackedSequence::from_words(
        std::move(reference_words), static_cast<std::size_t>(n));
    Bwt bwt;
    bwt.symbols = genome::PackedSequence::from_words(
        std::move(bwt_words), static_cast<std::size_t>(rows));
    bwt.primary = header.primary;
    std::array<std::uint64_t, genome::kNumBases> counts{};
    std::array<std::uint64_t, genome::kNumBases> occurrences{};
    for (std::size_t b = 0; b < genome::kNumBases; ++b) {
      counts[b] = header.counts[b];
      occurrences[b] = header.occurrences[b];
    }
    auto sampled_sa = SampledSuffixArray::from_parts(
        header.sa_sample_rate,
        util::BitVector::from_words(std::move(sa_row_words),
                                    static_cast<std::size_t>(rows)),
        std::move(sa_ranks), std::move(sa_samples));
    FmIndexConfig config;
    config.bucket_width = header.bucket_width;
    config.sa_sample_rate = header.sa_sample_rate;
    loaded.index = FmIndex::from_parts(
        config, std::move(reference), std::move(bwt),
        CountTable(counts, occurrences),
        MarkerTable::from_parts(header.bucket_width, std::move(markers)),
        std::move(sampled_sa));
    loaded.chromosomes = std::move(chromosomes);
    return loaded;
  } catch (const std::invalid_argument& e) {
    // A structurally inconsistent (but checksummed) artifact is an I/O-level
    // corruption from the caller's point of view.
    fail(std::string("inconsistent index structure: ") + e.what());
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// v2 writer.

void save_index(std::ostream& out, const FmIndex& index,
                const std::vector<genome::Chromosome>& chromosomes) {
  const genome::PackedSequence& reference = index.reference();
  check_save_args(reference, chromosomes);

  FileHeaderV2 header;
  header.magic = kIndexMagic;
  header.version = kIndexVersion;
  header.header_bytes = sizeof(FileHeaderV2);
  header.bucket_width = index.config().bucket_width;
  header.sa_sample_rate = index.config().sa_sample_rate;
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
  const auto sa_samples = index.sampled_sa().samples();
  const auto sa_row_words = index.sampled_sa().sampled_rows().words();
  const auto sa_ranks = index.sampled_sa().rank_blocks();
  const std::array<SectionPayload, 7> payloads = {{
      {SectionId::kReference, ref_words.data(), ref_words.size_bytes()},
      {SectionId::kBwt, bwt_words.data(), bwt_words.size_bytes()},
      {SectionId::kMarkers, marker_rows.data(), marker_rows.size_bytes()},
      {SectionId::kSaSamples, sa_samples.data(), sa_samples.size_bytes()},
      {SectionId::kSaRows, sa_row_words.data(), sa_row_words.size_bytes()},
      {SectionId::kSaRanks, sa_ranks.data(), sa_ranks.size_bytes()},
      {SectionId::kChromosomes, chrom_payload.data(), chrom_payload.size()},
  }};
  header.num_sections = static_cast<std::uint32_t>(payloads.size());

  std::array<SectionEntry, 7> table{};
  std::uint64_t offset = sizeof(FileHeaderV2) +
                         payloads.size() * sizeof(SectionEntry) +
                         sizeof(std::uint64_t);  // + table checksum
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

void save_index_v1(std::ostream& out, const FmIndex& index) {
  const genome::PackedSequence& reference = index.reference();
  std::uint64_t hash = kFnvOffset;
  write_pod_v1(out, kIndexMagic, hash);
  write_pod_v1(out, kIndexVersionV1, hash);
  write_pod_v1(out, index.config().bucket_width, hash);
  write_pod_v1(out, index.config().sa_sample_rate, hash);

  // Reference: 2-bit packed.
  const std::uint64_t n = reference.size();
  write_pod_v1(out, n, hash);
  for (std::uint64_t i = 0; i < n; i += 32) {
    std::uint64_t word = 0;
    for (std::uint64_t j = 0; j < 32 && i + j < n; ++j) {
      word |= static_cast<std::uint64_t>(reference.at(i + j)) << (2 * j);
    }
    write_pod_v1(out, word, hash);
  }

  // Suffix array: dumping it trades ~4 bytes/base of disk for skipping
  // SA-IS at load. Recovered via locate() of every row (rate-independent).
  const std::uint64_t rows = index.num_rows();
  write_pod_v1(out, rows, hash);
  for (std::uint64_t row = 0; row < rows; ++row) {
    write_pod_v1(out, static_cast<std::uint32_t>(index.locate(row)), hash);
  }
  write_pod_v1(out, hash, hash);  // trailing checksum (hash of all prior bytes)
  if (!out) fail("write failed");
}

// ---------------------------------------------------------------------------
// Loading.

namespace {

// Reads one v2 section payload into an owned, element-typed buffer and
// verifies its checksum. `origin` is the stream position of the file's
// first byte (load_index accepts streams that start mid-file).
template <typename T>
util::Storage<T> read_section(std::istream& in, std::istream::pos_type origin,
                              const SectionEntry& entry) {
  const auto id = static_cast<SectionId>(entry.id);
  std::vector<T> buffer(static_cast<std::size_t>(entry.payload_bytes) /
                        sizeof(T));
  in.clear();
  in.seekg(origin + static_cast<std::istream::off_type>(entry.offset));
  in.read(reinterpret_cast<char*>(buffer.data()),
          static_cast<std::streamsize>(entry.payload_bytes));
  if (!in ||
      static_cast<std::uint64_t>(in.gcount()) != entry.payload_bytes) {
    fail_section(id, "truncated");
  }
  if (fnv1a(kFnvOffset, buffer.data(), entry.payload_bytes) !=
      entry.checksum) {
    fail_section(id, "checksum mismatch");
  }
  return util::Storage<T>(std::move(buffer));
}

const SectionEntry& find_section(const std::vector<SectionEntry>& entries,
                                 SectionId id) {
  for (const auto& entry : entries) {
    if (entry.id == static_cast<std::uint32_t>(id)) return entry;
  }
  // validate_v2_layout guarantees presence; unreachable.
  fail_section(id, "missing section");
}

LoadedIndex load_index_v2(std::istream& in, std::istream::pos_type origin,
                          const FileHeaderV2& header,
                          obs::MetricsRegistry* metrics) {
  // Stream extent, for the bounds checks the mapped loader gets from fstat.
  in.clear();
  in.seekg(0, std::ios::end);
  const auto end_pos = in.tellg();
  if (end_pos < origin) fail("truncated file");
  const auto actual_bytes = static_cast<std::uint64_t>(end_pos - origin);

  if (header.num_sections == 0 || header.num_sections > kMaxSections) {
    fail("implausible section count");
  }
  std::vector<SectionEntry> table(header.num_sections);
  const std::uint64_t table_bytes =
      std::uint64_t{header.num_sections} * sizeof(SectionEntry);
  in.clear();
  in.seekg(origin + static_cast<std::istream::off_type>(sizeof(FileHeaderV2)));
  in.read(reinterpret_cast<char*>(table.data()),
          static_cast<std::streamsize>(table_bytes));
  std::uint64_t stored_table_checksum = 0;
  in.read(reinterpret_cast<char*>(&stored_table_checksum),
          sizeof(stored_table_checksum));
  if (!in) fail("truncated file");
  if (fnv1a(kFnvOffset, table.data(), table_bytes) != stored_table_checksum) {
    fail("section table checksum mismatch");
  }

  const auto entries =
      detail::validate_v2_layout(header, table.data(), actual_bytes);

  const auto read_start = std::chrono::steady_clock::now();
  auto reference_words = read_section<std::uint64_t>(
      in, origin, find_section(entries, SectionId::kReference));
  auto bwt_words = read_section<std::uint64_t>(
      in, origin, find_section(entries, SectionId::kBwt));
  auto markers = read_section<OccCheckpoint>(
      in, origin, find_section(entries, SectionId::kMarkers));
  auto sa_samples = read_section<std::uint32_t>(
      in, origin, find_section(entries, SectionId::kSaSamples));
  auto sa_row_words = read_section<std::uint64_t>(
      in, origin, find_section(entries, SectionId::kSaRows));
  auto sa_ranks = read_section<std::uint32_t>(
      in, origin, find_section(entries, SectionId::kSaRanks));
  auto chrom_storage = read_section<unsigned char>(
      in, origin, find_section(entries, SectionId::kChromosomes));
  auto chromosomes =
      detail::parse_chromosomes(chrom_storage.data(), chrom_storage.size());
  if (metrics != nullptr) {
    metrics->histogram("index.load.read_ms").observe(ms_since(read_start));
  }

  return detail::assemble_v2(header, std::move(reference_words),
                             std::move(bwt_words), std::move(markers),
                             std::move(sa_samples), std::move(sa_row_words),
                             std::move(sa_ranks), std::move(chromosomes));
}

}  // namespace

LoadedIndex load_index(std::istream& in, obs::MetricsRegistry* metrics) {
  const auto start = std::chrono::steady_clock::now();
  const std::istream::pos_type origin = in.tellg();

  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in) fail("truncated file");
  if (magic != kIndexMagic) fail("bad magic (not a PIM-Aligner index)");

  LoadedIndex loaded;
  if (version == kIndexVersionV1) {
    std::uint64_t hash = kFnvOffset;
    hash = fnv1a(hash, &magic, sizeof(magic));
    hash = fnv1a(hash, &version, sizeof(version));
    loaded = load_index_v1(in, hash, metrics);
  } else if (version == kIndexVersion) {
    FileHeaderV2 header;
    header.magic = magic;
    header.version = version;
    in.read(reinterpret_cast<char*>(&header) + 2 * sizeof(std::uint32_t),
            sizeof(header) - 2 * sizeof(std::uint32_t));
    if (!in) fail("truncated file");
    loaded = load_index_v2(in, origin, header, metrics);
  } else {
    fail("unsupported index version");
  }
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
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  in.seekg(0, std::ios::end);
  const auto actual_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);

  IndexFileInfo info;
  info.file_bytes = actual_bytes;

  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in) fail("truncated file");
  if (magic != kIndexMagic) fail("bad magic (not a PIM-Aligner index)");
  info.version = version;

  if (version == kIndexVersionV1) {
    std::uint64_t ignored = kFnvOffset;
    info.bucket_width = read_pod_v1<std::uint32_t>(in, ignored);
    info.sa_sample_rate = read_pod_v1<std::uint32_t>(in, ignored);
    info.reference_bases = read_pod_v1<std::uint64_t>(in, ignored);
    return info;
  }
  if (version != kIndexVersion) fail("unsupported index version");

  FileHeaderV2 header;
  header.magic = magic;
  header.version = version;
  in.read(reinterpret_cast<char*>(&header) + 2 * sizeof(std::uint32_t),
          sizeof(header) - 2 * sizeof(std::uint32_t));
  if (!in) fail("truncated file");
  info.bucket_width = header.bucket_width;
  info.sa_sample_rate = header.sa_sample_rate;
  info.reference_bases = header.reference_bases;
  info.file_bytes = header.file_bytes;

  if (header.num_sections == 0 || header.num_sections > kMaxSections) {
    fail("implausible section count");
  }
  std::vector<SectionEntry> table(header.num_sections);
  const std::uint64_t table_bytes =
      std::uint64_t{header.num_sections} * sizeof(SectionEntry);
  in.read(reinterpret_cast<char*>(table.data()),
          static_cast<std::streamsize>(table_bytes));
  std::uint64_t stored_table_checksum = 0;
  in.read(reinterpret_cast<char*>(&stored_table_checksum),
          sizeof(stored_table_checksum));
  if (!in) fail("truncated file");
  if (fnv1a(kFnvOffset, table.data(), table_bytes) != stored_table_checksum) {
    fail("section table checksum mismatch");
  }
  const auto entries =
      detail::validate_v2_layout(header, table.data(), actual_bytes);

  for (const auto& entry : entries) {
    IndexSectionInfo section;
    section.name = section_name(static_cast<SectionId>(entry.id));
    section.offset = entry.offset;
    section.payload_bytes = entry.payload_bytes;
    section.checksum = entry.checksum;
    info.sections.push_back(std::move(section));
  }
  const auto chrom_storage = read_section<unsigned char>(
      in, std::istream::pos_type(0),
      find_section(entries, SectionId::kChromosomes));
  info.num_chromosomes =
      detail::parse_chromosomes(chrom_storage.data(), chrom_storage.size())
          .size();
  return info;
}

}  // namespace pim::index
