#include "src/index/index_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "src/align/backward_search.h"
#include "src/align/search_core.h"
#include "src/genome/synthetic_genome.h"
#include "src/index/mapped_index.h"
#include "src/util/rng.h"
#include "tests/temp_dir.h"

namespace pim::index {
namespace {

using genome::PackedSequence;

struct Fixture {
  PackedSequence reference;
  FmIndex fm;
  Fixture() {
    genome::SyntheticGenomeSpec spec;
    spec.length = 5000;
    spec.seed = 12;
    reference = genome::generate_reference(spec);
    fm = FmIndex::build(reference, {.bucket_width = 64});
  }
};

TEST(IndexIo, RoundTripPreservesEverything) {
  Fixture f;
  std::stringstream buffer;
  save_index(buffer, f.fm);
  const LoadedIndex loaded = load_index(buffer);

  EXPECT_TRUE(loaded.reference() == f.reference);
  EXPECT_EQ(loaded.index.num_rows(), f.fm.num_rows());
  EXPECT_EQ(loaded.index.config().bucket_width, 64U);
  EXPECT_EQ(loaded.index.bwt().primary, f.fm.bwt().primary);
  // Search behaviour identical.
  util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t start = rng.bounded(f.reference.size() - 30);
    const auto read = f.reference.slice(start, start + 30);
    const auto a = align::exact_search(f.fm, read);
    const auto b = align::exact_search(loaded.index, read);
    EXPECT_EQ(a.interval, b.interval);
  }
  // Locate identical for every row.
  for (std::size_t row = 0; row < f.fm.num_rows(); row += 97) {
    EXPECT_EQ(loaded.index.locate(row), f.fm.locate(row));
  }
}

// An index holds its SA and nothing else for locate; the artifact still
// carries the all-set row marks and the full rank directory (pinned by
// SavedBytesArePinned), and both loaders drop them again.
TEST(IndexIo, Rate1LoadsKeepOnlyTheSuffixArray) {
  Fixture f;
  const std::size_t rows = f.fm.num_rows();
  EXPECT_EQ(f.fm.memory_footprint().sa_bytes, 4 * rows);
  const tests::TempDir dir;
  const std::string path = dir.file("rate1.bin");
  save_index_file(path, f.fm);
  const LoadedIndex streamed = load_index_file(path);
  const MappedIndex mapped = MappedIndex::open(path);
  for (const FmIndex* index : {&streamed.index, &mapped.index()}) {
    EXPECT_EQ(index->memory_footprint().sa_bytes, 4 * rows);
    for (std::size_t row = 0; row < rows; row += 7) {
      ASSERT_EQ(index->locate(row), f.fm.locate(row)) << row;
    }
  }
}

// The artifact bytes are the format: the FNV-1a digest of save_index's
// output (row marks and rank directory written from n). Any drift fails
// here.
TEST(IndexIo, SavedBytesArePinned) {
  const Fixture f;
  std::stringstream buffer;
  save_index(buffer, f.fm, {{"chrA", 0, 3000}, {"chrB", 3000, 2000}});
  const std::string bytes = buffer.str();
  EXPECT_EQ(detail::fnv1a(detail::kFnvOffset, bytes.data(), bytes.size()),
            0x002266c04f239e1bULL);
}

TEST(IndexIo, BadMagicRejected) {
  std::stringstream buffer;
  buffer.write("NOPE", 4);
  buffer.write("rest of a garbage file that is long enough", 42);
  EXPECT_THROW(load_index(buffer), std::runtime_error);
}

TEST(IndexIo, TruncationRejected) {
  Fixture f;
  std::stringstream buffer;
  save_index(buffer, f.fm);
  const std::string bytes = buffer.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(load_index(truncated), std::runtime_error);
}

TEST(IndexIo, CorruptionRejectedByChecksum) {
  Fixture f;
  std::stringstream buffer;
  save_index(buffer, f.fm);
  std::string bytes = buffer.str();
  bytes[bytes.size() / 2] ^= 0x40;  // flip a bit mid-payload
  std::stringstream corrupt(bytes);
  EXPECT_THROW(load_index(corrupt), std::runtime_error);
}

TEST(IndexIo, FileRoundTrip) {
  Fixture f;
  const tests::TempDir dir;
  const std::string path = dir.file("index.bin");
  save_index_file(path, f.fm);
  const LoadedIndex loaded = load_index_file(path);
  EXPECT_TRUE(loaded.reference() == f.reference);
  EXPECT_THROW(load_index_file(dir.file("missing.bin")), std::runtime_error);
}

TEST(IndexIo, ChromosomeTableRoundTrips) {
  Fixture f;
  const std::vector<genome::Chromosome> chromosomes = {
      {"chr1", 0, 3000}, {"chr2", 3000, 2000}};
  std::stringstream buffer;
  save_index(buffer, f.fm, chromosomes);
  const LoadedIndex loaded = load_index(buffer);
  ASSERT_EQ(loaded.chromosomes.size(), 2U);
  EXPECT_EQ(loaded.chromosomes[0].name, "chr1");
  EXPECT_EQ(loaded.chromosomes[1].offset, 3000U);
  EXPECT_EQ(loaded.chromosomes[1].length, 2000U);
}

TEST(IndexIo, NonContiguousChromosomesRejectedOnSave) {
  Fixture f;
  std::stringstream buffer;
  EXPECT_THROW(
      save_index(buffer, f.fm, {{"chr1", 0, 1000}}),
      std::invalid_argument);
  EXPECT_THROW(save_index(buffer, f.fm,
                          {{"chr1", 0, 1000}, {"chr2", 1500, 3500}}),
               std::invalid_argument);
}

TEST(IndexIo, InspectReportsSections) {
  Fixture f;
  const tests::TempDir dir;
  const std::string path = dir.file("inspect.bin");
  save_index_file(path, f.fm, {{"only", 0, 5000}});
  const auto info = inspect_index_file(path);
  EXPECT_EQ(info.version, kIndexVersion);
  EXPECT_EQ(info.reference_bases, 5000U);
  EXPECT_EQ(info.num_chromosomes, 1U);
  EXPECT_EQ(info.sections.size(), 7U);
  std::uint64_t payload_total = 0;
  for (const auto& section : info.sections) {
    payload_total += section.payload_bytes;
    EXPECT_EQ(section.offset % 8, 0U) << section.name;
  }
  EXPECT_LE(payload_total, info.file_bytes);
}

/// A read-only streambuf that cannot seek (seekoff/seekpos keep their
/// failing defaults), like a pipe's.
class ForwardOnlyBuf : public std::streambuf {
 public:
  explicit ForwardOnlyBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(IndexIo, NonSeekableStreamLoads) {
  Fixture f;
  std::stringstream buffer;
  save_index(buffer, f.fm, {{"chr", 0, 5000}});
  ForwardOnlyBuf source(buffer.str());
  std::istream in(&source);
  ASSERT_EQ(in.tellg(), std::istream::pos_type(-1));  // really cannot seek
  const LoadedIndex loaded = load_index(in);
  EXPECT_TRUE(loaded.reference() == f.reference);
  ASSERT_EQ(loaded.chromosomes.size(), 1U);
  for (std::size_t row = 0; row < f.fm.num_rows(); row += 89) {
    EXPECT_EQ(loaded.index.locate(row), f.fm.locate(row));
  }

  const std::string bytes = buffer.str();
  ForwardOnlyBuf short_source(bytes.substr(0, bytes.size() - 1));
  std::istream short_in(&short_source);
  EXPECT_THROW(load_index(short_in), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Hardening matrix (S42): every corruption class must fail loudly — a
// runtime_error naming the failing section — through BOTH loaders.
// ---------------------------------------------------------------------------

std::string v2_bytes(const Fixture& f) {
  std::stringstream buffer;
  save_index(buffer, f.fm, {{"chr", 0, 5000}});
  return buffer.str();
}

/// Runs `bytes` through the stream loader and (via a temp file) the mapped
/// loader, expecting both to throw a runtime_error mentioning `needle`.
void expect_both_loaders_reject(const std::string& bytes,
                                const std::string& needle,
                                const std::string& tag) {
  std::stringstream stream(bytes);
  try {
    load_index(stream);
    FAIL() << tag << ": stream loader accepted corrupt bytes";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << tag << ": stream error was: " << e.what();
  }
  const tests::TempDir dir;
  const std::string path = dir.file(tag + ".bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    MappedIndex::open(path);
    FAIL() << tag << ": mapped loader accepted corrupt bytes";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << tag << ": mapped error was: " << e.what();
  }
}

TEST(IndexIoHardening, BadMagicBothLoaders) {
  Fixture f;
  std::string bytes = v2_bytes(f);
  bytes[0] = 'X';
  expect_both_loaders_reject(bytes, "bad magic", "magic");
}

TEST(IndexIoHardening, UnsupportedVersionBothLoaders) {
  Fixture f;
  std::string bytes = v2_bytes(f);
  const std::uint32_t version = 99;
  std::memcpy(bytes.data() + 4, &version, sizeof(version));
  // Both loaders share one header parser, so both report the same error.
  expect_both_loaders_reject(bytes, "unsupported index version", "version");
}

TEST(IndexIoHardening, TruncatedSectionBothLoaders) {
  Fixture f;
  const std::string bytes = v2_bytes(f);
  // Cut mid-way through the payloads: the mapped loader's file-size check
  // reports a truncated file, the stream loader the section it ran out in.
  expect_both_loaders_reject(bytes.substr(0, bytes.size() * 3 / 4),
                             "truncated", "truncated");
}

TEST(IndexIoHardening, FlippedPayloadByteNamesSection) {
  Fixture f;
  std::string bytes = v2_bytes(f);
  const auto info = [&] {
    const tests::TempDir dir;
    const std::string path = dir.file("layout.bin");
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    return inspect_index_file(path);
  }();
  // Flip one byte inside each section in turn; the error must name it.
  for (const auto& section : info.sections) {
    std::string corrupt = bytes;
    corrupt[section.offset + section.payload_bytes / 2] ^= 0x01;
    expect_both_loaders_reject(
        corrupt, "section '" + section.name + "': checksum mismatch",
        "flip_" + section.name);
  }
}

TEST(IndexIoHardening, ZeroLengthReferenceBothLoaders) {
  Fixture f;
  std::string bytes = v2_bytes(f);
  // reference_bases lives in the v2 header; re-seal the header checksum so
  // the zero-length check (not the checksum) is what fires.
  detail::FileHeaderV2 header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.reference_bases = 0;
  header.header_checksum = 0;
  header.header_checksum = detail::fnv1a(detail::kFnvOffset, &header,
                                         sizeof(header) - sizeof(std::uint64_t));
  std::memcpy(bytes.data(), &header, sizeof(header));
  expect_both_loaders_reject(bytes, "zero-length reference", "zeroref");
}

TEST(IndexIoHardening, HeaderChecksumCoversHeaderFields) {
  Fixture f;
  std::string bytes = v2_bytes(f);
  // Corrupt primary without re-sealing: the header checksum must fire.
  detail::FileHeaderV2 header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.primary ^= 1;
  std::memcpy(bytes.data(), &header, sizeof(header));
  expect_both_loaders_reject(bytes, "header checksum", "header");
}

// A checksummed chromosome table whose lengths sum to n but whose offsets
// overlap must not load: the SAM path would mislabel every hit past chr1.
TEST(IndexIoHardening, ResealedOverlappingChromosomesBothLoaders) {
  Fixture f;
  std::stringstream buffer;
  save_index(buffer, f.fm,
             {{"chr1", 0, 3000}, {"chr2", 3000, 2000}});
  std::string bytes = buffer.str();

  detail::FileHeaderV2 header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  const std::size_t table_at = sizeof(header);
  std::vector<detail::SectionEntry> entries(header.num_sections);
  std::memcpy(entries.data(), bytes.data() + table_at,
              entries.size() * sizeof(detail::SectionEntry));
  for (auto& entry : entries) {
    if (entry.id != static_cast<std::uint32_t>(detail::SectionId::kChromosomes)) {
      continue;
    }
    // Payload: count, then {offset, length, name_len, name padded to 8};
    // "chr1" pads to 8 bytes, so chr2's offset is at 8 + 24 + 8.
    const std::uint64_t overlapping_offset = 2000;
    std::memcpy(bytes.data() + entry.offset + 40, &overlapping_offset,
                sizeof(overlapping_offset));
    entry.checksum = detail::fnv1a(detail::kFnvOffset,
                                   bytes.data() + entry.offset,
                                   entry.payload_bytes);
  }
  const std::size_t table_bytes =
      entries.size() * sizeof(detail::SectionEntry);
  std::memcpy(bytes.data() + table_at, entries.data(), table_bytes);
  const std::uint64_t table_checksum =
      detail::fnv1a(detail::kFnvOffset, entries.data(), table_bytes);
  std::memcpy(bytes.data() + table_at + table_bytes, &table_checksum,
              sizeof(table_checksum));

  expect_both_loaders_reject(bytes, "section 'chromosomes'", "overlap");
}

TEST(IndexIoHardening, V1ArtifactRejectedBothLoaders) {
  // The retired v1 layout: magic, version 1, FM config, n, then the packed
  // reference, the full SA and a trailing checksum (zeros here: the version
  // check fires first).
  std::string bytes(4096, '\0');
  const std::uint32_t prefix[4] = {kIndexMagic, 1, 64, 1};
  const std::uint64_t n = 5000;
  std::memcpy(bytes.data(), prefix, sizeof(prefix));
  std::memcpy(bytes.data() + sizeof(prefix), &n, sizeof(n));
  expect_both_loaders_reject(bytes, "unsupported index version", "v1");
}

/// Recomputes every section checksum and the table checksum, as a crafted
/// (rather than corrupted) artifact would carry them.
std::string reseal(std::string bytes) {
  detail::FileHeaderV2 header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<detail::SectionEntry> entries(header.num_sections);
  const std::size_t table_bytes =
      entries.size() * sizeof(detail::SectionEntry);
  std::memcpy(entries.data(), bytes.data() + sizeof(header), table_bytes);
  for (auto& entry : entries) {
    entry.checksum = detail::fnv1a(
        detail::kFnvOffset, bytes.data() + entry.offset, entry.payload_bytes);
  }
  std::memcpy(bytes.data() + sizeof(header), entries.data(), table_bytes);
  const std::uint64_t table_checksum =
      detail::fnv1a(detail::kFnvOffset, entries.data(), table_bytes);
  std::memcpy(bytes.data() + sizeof(header) + table_bytes, &table_checksum,
              sizeof(table_checksum));
  return bytes;
}

detail::ArtifactLayout layout_of(const std::string& bytes) {
  return detail::parse_layout(
      {reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size()},
      bytes.size());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A checksummed table may claim a section far larger than the file. The
// stream loader cannot see the file's size, so it must run out of bytes
// before it allocates the claimed 16 GiB.
TEST(IndexIoHardening, ResealedOversizedSectionBothLoaders) {
  Fixture f;
  std::string bytes = v2_bytes(f);
  detail::FileHeaderV2 header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<detail::SectionEntry> entries(header.num_sections);
  const std::size_t table_bytes =
      entries.size() * sizeof(detail::SectionEntry);
  std::memcpy(entries.data(), bytes.data() + sizeof(header), table_bytes);
  // The chromosome table is the one section whose size the header does not
  // fix.
  const std::uint64_t claimed = std::uint64_t{1} << 34;
  std::uint64_t shift = 0;
  for (auto& entry : entries) {
    entry.offset += shift;
    if (entry.id ==
        static_cast<std::uint32_t>(detail::SectionId::kChromosomes)) {
      shift = claimed - ((entry.payload_bytes + 7) & ~std::uint64_t{7});
      entry.payload_bytes = claimed;
    }
  }
  header.file_bytes += shift;
  header.header_checksum = detail::fnv1a(
      detail::kFnvOffset, &header, sizeof(header) - sizeof(std::uint64_t));
  std::memcpy(bytes.data(), &header, sizeof(header));
  std::memcpy(bytes.data() + sizeof(header), entries.data(), table_bytes);
  const std::uint64_t table_checksum =
      detail::fnv1a(detail::kFnvOffset, entries.data(), table_bytes);
  std::memcpy(bytes.data() + sizeof(header) + table_bytes, &table_checksum,
              sizeof(table_checksum));
  expect_both_loaders_reject(bytes, "truncated", "oversized");
}

// Checksummed marker rows that drive the k-mer table build out of the BWT
// must fail as an inconsistent structure, not escape as std::out_of_range.
TEST(IndexIoHardening, ResealedCorruptMarkersBothLoaders) {
  Fixture f;
  std::string bytes = v2_bytes(f);
  for (const auto& entry : layout_of(bytes).entries) {
    if (entry.id != static_cast<std::uint32_t>(detail::SectionId::kMarkers)) {
      continue;
    }
    const std::uint32_t word = 0xFFFFFF00U;
    for (std::size_t i = 0; i < entry.payload_bytes / sizeof(word); ++i) {
      std::memcpy(bytes.data() + entry.offset + i * sizeof(word), &word,
                  sizeof(word));
    }
  }
  expect_both_loaders_reject(reseal(bytes), "inconsistent index structure",
                             "markers");

  // Un-sealed, the same bytes reach assemble through an unverified mapping.
  const tests::TempDir dir;
  const std::string path = dir.file("markers_unverified.bin");
  write_file(path, bytes);
  try {
    MappedIndex::open(path, {.verify_checksums = false});
    FAIL() << "unverified mapped loader accepted corrupt markers";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("inconsistent index structure"),
              std::string::npos)
        << e.what();
  }
}

// The index keeps the full SA, so an artifact must say sample rate 1 and
// carry the row marks and rank directory that rate fixes. Re-sealed
// artifacts that say otherwise are rejected, naming what is wrong.
TEST(IndexIoHardening, ResealedSaMarksBothLoaders) {
  Fixture f;
  const std::string bytes = v2_bytes(f);

  std::string rate4 = bytes;
  detail::FileHeaderV2 header;
  std::memcpy(&header, rate4.data(), sizeof(header));
  header.sa_sample_rate = 4;
  header.header_checksum = detail::fnv1a(
      detail::kFnvOffset, &header, sizeof(header) - sizeof(std::uint64_t));
  std::memcpy(rate4.data(), &header, sizeof(header));
  expect_both_loaders_reject(rate4, "unsupported SA sample rate 4", "rate4");
  const tests::TempDir dir;
  const std::string path = dir.file("rate4.bin");
  write_file(path, rate4);
  try {
    (void)inspect_index_file(path);
    FAIL() << "inspect accepted sample rate 4";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported SA sample rate 4"),
              std::string::npos)
        << e.what();
  }

  const auto entry_of = [&](detail::SectionId id) {
    for (const auto& entry : layout_of(bytes).entries) {
      if (entry.id == static_cast<std::uint32_t>(id)) return entry;
    }
    return detail::SectionEntry{};
  };
  std::string cleared = bytes;
  cleared[entry_of(detail::SectionId::kSaRows).offset + 100] ^= 0x10;
  expect_both_loaders_reject(reseal(cleared), "section 'sa-rows'", "sa_rows");

  // Rank block 2 (1024 rows) becomes 1025.
  std::string ranked = bytes;
  ranked[entry_of(detail::SectionId::kSaRanks).offset + 8] ^= 0x01;
  expect_both_loaders_reject(reseal(ranked), "section 'sa-ranks'", "sa_ranks");
}

// ---------------------------------------------------------------------------
// Bit-identity: built vs stream-loaded vs mapped must be indistinguishable.
// ---------------------------------------------------------------------------

TEST(IndexIoIdentity, BuiltStreamAndMappedAgree) {
  Fixture f;
  const tests::TempDir dir;
  const std::string path = dir.file("identity.bin");
  save_index_file(path, f.fm, {{"chr", 0, 5000}});
  const LoadedIndex streamed = load_index_file(path);
  const MappedIndex mapped = MappedIndex::open(path);

  EXPECT_TRUE(streamed.reference() == f.reference);
  EXPECT_TRUE(mapped.reference() == f.reference);
  ASSERT_EQ(mapped.chromosomes().size(), 1U);
  EXPECT_EQ(mapped.chromosomes()[0].name, "chr");

  util::Xoshiro256 rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t len = 20 + rng.bounded(30);
    const std::size_t start = rng.bounded(f.reference.size() - len);
    const auto read = f.reference.slice(start, start + len);
    const auto a = align::exact_search(f.fm, read);
    const auto b = align::exact_search(streamed.index, read);
    const auto c = align::exact_search(mapped.index(), read);
    EXPECT_EQ(a.interval, b.interval);
    EXPECT_EQ(a.interval, c.interval);
  }
  for (std::size_t row = 0; row < f.fm.num_rows(); row += 37) {
    EXPECT_EQ(f.fm.locate(row), streamed.index.locate(row));
    EXPECT_EQ(f.fm.locate(row), mapped.index().locate(row));
  }
}

TEST(IndexIoIdentity, MappedIndexMoveKeepsBorrowsValid) {
  Fixture f;
  const tests::TempDir dir;
  const std::string path = dir.file("identity_move.bin");
  save_index_file(path, f.fm);
  MappedIndex first = MappedIndex::open(path);
  const auto before = first.index().locate(11);
  MappedIndex second = std::move(first);
  EXPECT_EQ(second.index().locate(11), before);
  MappedIndex third;
  third = std::move(second);
  EXPECT_EQ(third.index().locate(11), before);
}

TEST(IndexIoIdentity, RewriteKeepsOpenMappingValid) {
  // save_index_file replaces the artifact by rename, so a reader that still
  // maps the old file keeps valid pages. Rewriting in place would truncate
  // them under the reader (SIGBUS on its next access).
  Fixture f;
  const tests::TempDir dir;
  const std::string path = dir.file("rewrite_while_mapped.bin");
  save_index_file(path, f.fm);
  const MappedIndex mapped = MappedIndex::open(path);

  util::Xoshiro256 rng(29);
  std::vector<std::vector<genome::Base>> reads;
  for (int i = 0; i < 50; ++i) {
    const std::size_t start = rng.bounded(f.reference.size() - 30);
    reads.push_back(f.reference.slice(start, start + 30));
  }
  const auto align_all = [&] {
    std::vector<std::vector<std::uint64_t>> positions;
    for (const auto& read : reads) {
      positions.push_back(align::exact_locate(mapped.index(), read));
    }
    return positions;
  };
  const auto before = align_all();

  genome::SyntheticGenomeSpec small_spec;
  small_spec.length = 200;
  small_spec.seed = 13;
  const PackedSequence small = genome::generate_reference(small_spec);
  save_index_file(path, FmIndex::build(small, {.bucket_width = 64}));

  EXPECT_EQ(align_all(), before);
  EXPECT_TRUE(mapped.reference() == f.reference);
  EXPECT_TRUE(load_index_file(path).reference() == small);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST(IndexIoIdentity, LoadMetricsDistinguishRebuildFromMap) {
  Fixture f;
  const tests::TempDir dir;
  const std::string path = dir.file("metrics.bin");
  save_index_file(path, f.fm);

  obs::MetricsRegistry registry;
  (void)load_index_file(path, &registry);
  (void)MappedIndex::open(path, {}, &registry);
  const auto snapshot = registry.scrape();
  const auto* stream_ms = snapshot.histogram("index.load.stream_ms");
  ASSERT_NE(stream_ms, nullptr);
  EXPECT_EQ(stream_ms->count, 1U);  // only the stream load copies sections
  const auto* map_ms = snapshot.histogram("index.load.map_ms");
  ASSERT_NE(map_ms, nullptr);
  EXPECT_EQ(map_ms->count, 1U);
}

// ---------------------------------------------------------------------------
// Seeded mutation suite: every reader of a damaged artifact either loads it
// or throws std::runtime_error — never another exception type, never an
// out-of-bounds access (CI runs ctest under ASan/UBSan).
//
// Checksums catch corruption, not a crafted artifact: a re-sealed flip
// (checksums recomputed) can load. Queries on such an index must then return
// or throw, never read outside it.
// ---------------------------------------------------------------------------

PackedSequence mutation_seed_reference() {
  genome::SyntheticGenomeSpec spec;
  // 1001 BWT rows: three u32 rank blocks, so sa-ranks ends mid-word.
  spec.length = 1000;
  spec.seed = 41;
  return genome::generate_reference(spec);
}

std::string mutation_seed_bytes() {
  const FmIndex fm =
      FmIndex::build(mutation_seed_reference(), {.bucket_width = 32});
  std::stringstream buffer;
  save_index(buffer, fm, {{"chrA", 0, 600}, {"chrB", 600, 400}});
  return buffer.str();
}

enum class Outcome { kLoaded, kRejected, kOtherException };

template <typename Load>
Outcome outcome_of(Load&& load) {
  try {
    load();
    return Outcome::kLoaded;
  } catch (const std::runtime_error&) {
    return Outcome::kRejected;
  } catch (...) {
    return Outcome::kOtherException;
  }
}

Outcome stream_outcome(const std::string& bytes) {
  return outcome_of([&] {
    std::stringstream in(bytes);
    (void)load_index(in);
  });
}

Outcome mapped_outcome(const std::string& path, bool verify = true) {
  return outcome_of(
      [&] { (void)MappedIndex::open(path, {.verify_checksums = verify}); });
}

TEST(IndexIoMutation, BitFlipsRejectedUnlessInPadding) {
  const std::string original = mutation_seed_bytes();
  std::vector<std::size_t> padding;
  for (const auto& entry : layout_of(original).entries) {
    const std::uint64_t end = entry.offset + entry.payload_bytes;
    for (std::uint64_t pos = end; pos % 8 != 0; ++pos) padding.push_back(pos);
  }
  ASSERT_FALSE(padding.empty());

  const tests::TempDir dir;
  const std::string path = dir.file("flip.bin");
  const auto check_flip = [&](std::size_t pos, unsigned bit) {
    std::string bytes = original;
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1U << bit));
    write_file(path, bytes);
    const bool in_padding =
        std::find(padding.begin(), padding.end(), pos) != padding.end();
    const Outcome expected =
        in_padding ? Outcome::kLoaded : Outcome::kRejected;
    EXPECT_EQ(stream_outcome(bytes), expected) << "byte " << pos;
    EXPECT_EQ(mapped_outcome(path), expected) << "byte " << pos;
  };
  util::Xoshiro256 rng(2025);
  for (int trial = 0; trial < 300; ++trial) {
    check_flip(static_cast<std::size_t>(rng.bounded(original.size())),
               static_cast<unsigned>(rng.bounded(8)));
  }
  for (const std::size_t pos : padding) check_flip(pos, 0);
}

TEST(IndexIoMutation, TruncationsRejectedByAllReaders) {
  const std::string original = mutation_seed_bytes();
  // Every boundary the parser steps over, then random cut points.
  std::vector<std::size_t> lengths = {0, 1, 7, 8, 119, 120, 127, 128,
                                      original.size() - 1};
  for (const auto& entry : layout_of(original).entries) {
    lengths.push_back(entry.offset);
    lengths.push_back(entry.offset + entry.payload_bytes / 2);
  }
  util::Xoshiro256 rng(7);
  while (lengths.size() < 100) {
    lengths.push_back(static_cast<std::size_t>(rng.bounded(original.size())));
  }

  const tests::TempDir dir;
  const std::string path = dir.file("truncated.bin");
  for (const std::size_t length : lengths) {
    const std::string bytes = original.substr(0, length);
    write_file(path, bytes);
    EXPECT_EQ(stream_outcome(bytes), Outcome::kRejected) << length;
    EXPECT_EQ(mapped_outcome(path), Outcome::kRejected) << length;
    EXPECT_EQ(outcome_of([&] { (void)inspect_index_file(path); }),
              Outcome::kRejected)
        << length;
  }
}

TEST(IndexIoMutation, ResealedPayloadFlipsLoadOrThrowRuntimeError) {
  const std::string original = mutation_seed_bytes();
  const auto entries = layout_of(original).entries;
  const tests::TempDir dir;
  const std::string sealed_path = dir.file("resealed.bin");
  const std::string unsealed_path = dir.file("unsealed.bin");
  util::Xoshiro256 rng(31337);
  int loaded = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const auto& entry = entries[rng.bounded(entries.size())];
    const auto pos = static_cast<std::size_t>(
        entry.offset + rng.bounded(entry.payload_bytes));
    std::string unsealed = original;
    unsealed[pos] = static_cast<char>(unsealed[pos] ^ (1U << rng.bounded(8)));
    const std::string sealed = reseal(unsealed);
    write_file(sealed_path, sealed);
    write_file(unsealed_path, unsealed);

    // One parser and one assemble step: every reader reaches one verdict.
    const Outcome stream = stream_outcome(sealed);
    EXPECT_NE(stream, Outcome::kOtherException) << "byte " << pos;
    EXPECT_EQ(mapped_outcome(sealed_path), stream) << "byte " << pos;
    EXPECT_EQ(mapped_outcome(unsealed_path, /*verify=*/false), stream)
        << "byte " << pos;
    loaded += stream == Outcome::kLoaded;
  }
  // Most payload bits (reference, SA samples, names) are not cross-checked
  // at load; the suite must still exercise both verdicts.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, 600);
}

// Stage one and locate on every re-sealed artifact that loads. Each call
// returns or throws a std::exception; under ASan an out-of-bounds read
// fails the run.
TEST(IndexIoMutation, ResealedFlipsThenQueriesReturnOrThrow) {
  const PackedSequence reference = mutation_seed_reference();
  util::Xoshiro256 rng(4242);
  std::vector<std::vector<genome::Base>> reads;
  for (int i = 0; i < 12; ++i) {
    const std::size_t start = rng.bounded(reference.size() - 40);
    reads.push_back(reference.slice(start, start + 40));
  }
  std::vector<std::uint64_t> positions;
  const auto returns_or_throws = [](auto&& query) {
    try {
      query();
      return false;
    } catch (const std::exception&) {
      return true;
    }
  };
  const std::string original = mutation_seed_bytes();
  const auto entries = layout_of(original).entries;
  int loaded = 0;
  int threw = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const auto& entry = entries[rng.bounded(entries.size())];
    const auto pos = static_cast<std::size_t>(
        entry.offset + rng.bounded(entry.payload_bytes));
    std::string bytes = original;
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1U << rng.bounded(8)));
    std::stringstream in(reseal(std::move(bytes)));
    std::optional<LoadedIndex> artifact;
    try {
      artifact.emplace(load_index(in));
    } catch (const std::runtime_error&) {
      continue;
    }
    ++loaded;
    const FmIndex& index = artifact->index;
    for (const auto& read : reads) {
      threw += returns_or_throws(
          [&] { (void)align::exact_locate_core(index, read, positions); });
      // The read's last four bases: an interval of several rows.
      const std::vector<genome::Base> tail(read.end() - 4, read.end());
      threw += returns_or_throws([&] {
        index.locate_all_into(align::exact_search(index, tail).interval,
                              positions);
      });
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(threw, 0);
}

}  // namespace
}  // namespace pim::index
