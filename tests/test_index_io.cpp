#include "src/index/index_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/align/backward_search.h"
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
  explicit Fixture(std::uint32_t sa_rate = 1) {
    genome::SyntheticGenomeSpec spec;
    spec.length = 5000;
    spec.seed = 12;
    reference = genome::generate_reference(spec);
    fm = FmIndex::build(reference,
                        {.bucket_width = 64, .sa_sample_rate = sa_rate});
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

TEST(IndexIo, RoundTripWithSampledSa) {
  Fixture f(8);
  std::stringstream buffer;
  save_index(buffer, f.fm);
  const LoadedIndex loaded = load_index(buffer);
  EXPECT_EQ(loaded.index.config().sa_sample_rate, 8U);
  for (std::size_t row = 0; row < f.fm.num_rows(); row += 61) {
    EXPECT_EQ(loaded.index.locate(row), f.fm.locate(row));
  }
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

TEST(IndexIo, V1ArtifactsStillLoad) {
  Fixture f(4);
  std::stringstream buffer;
  save_index_v1(buffer, f.fm);
  const LoadedIndex loaded = load_index(buffer);
  EXPECT_TRUE(loaded.reference() == f.reference);
  EXPECT_TRUE(loaded.chromosomes.empty());  // v1 has no chromosome table
  EXPECT_EQ(loaded.index.config().sa_sample_rate, 4U);
  for (std::size_t row = 0; row < f.fm.num_rows(); row += 101) {
    EXPECT_EQ(loaded.index.locate(row), f.fm.locate(row));
  }
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
  // The mapped loader falls through to the stream loader for any version it
  // does not map, so both paths report the same canonical error.
  expect_both_loaders_reject(bytes, "unsupported index version", "version");
}

TEST(IndexIoHardening, TruncatedSectionBothLoaders) {
  Fixture f;
  const std::string bytes = v2_bytes(f);
  // Cut mid-way through the payloads: the file-size check reports it as a
  // truncated file before any section read.
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

TEST(IndexIoHardening, ZeroLengthReferenceV1) {
  // Hand-craft the v1 prefix: magic, version, config, then n = 0. The
  // loader rejects before reaching the trailing checksum.
  std::stringstream buffer;
  const std::uint32_t magic = kIndexMagic;
  const std::uint32_t version = kIndexVersionV1;
  const std::uint32_t bucket_width = 64;
  const std::uint32_t sa_rate = 1;
  const std::uint64_t n = 0;
  buffer.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  buffer.write(reinterpret_cast<const char*>(&version), sizeof(version));
  buffer.write(reinterpret_cast<const char*>(&bucket_width),
               sizeof(bucket_width));
  buffer.write(reinterpret_cast<const char*>(&sa_rate), sizeof(sa_rate));
  buffer.write(reinterpret_cast<const char*>(&n), sizeof(n));
  try {
    load_index(buffer);
    FAIL() << "v1 loader accepted a zero-length reference";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("zero-length reference"),
              std::string::npos)
        << e.what();
  }
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

// ---------------------------------------------------------------------------
// Bit-identity: built vs stream-loaded vs mapped must be indistinguishable.
// ---------------------------------------------------------------------------

TEST(IndexIoIdentity, BuiltStreamAndMappedAgree) {
  Fixture f(4);
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

TEST(IndexIoIdentity, MappedOpenOfV1FallsBackToStream) {
  Fixture f;
  const tests::TempDir dir;
  const std::string path = dir.file("v1_fallback.bin");
  {
    std::ofstream out(path, std::ios::binary);
    save_index_v1(out, f.fm);
  }
  const MappedIndex mapped = MappedIndex::open(path);
  EXPECT_FALSE(mapped.mapped());  // v1 tables are rebuilt, not mappable
  EXPECT_TRUE(mapped.reference() == f.reference);
  EXPECT_EQ(mapped.index().num_rows(), f.fm.num_rows());
}

TEST(IndexIoIdentity, LoadMetricsDistinguishRebuildFromMap) {
  Fixture f;
  const tests::TempDir dir;
  const std::string v1_path = dir.file("metrics_v1.bin");
  const std::string v2_path = dir.file("metrics_v2.bin");
  {
    std::ofstream out(v1_path, std::ios::binary);
    save_index_v1(out, f.fm);
  }
  save_index_file(v2_path, f.fm);

  obs::MetricsRegistry registry;
  (void)MappedIndex::open(v1_path, {}, &registry);
  (void)MappedIndex::open(v2_path, {}, &registry);
  const auto snapshot = registry.scrape();
  const auto* rebuild = snapshot.histogram("index.load.rebuild_ms");
  ASSERT_NE(rebuild, nullptr);
  EXPECT_EQ(rebuild->count, 1U);  // only the v1 fallback rebuilds
  const auto* map_ms = snapshot.histogram("index.load.map_ms");
  if (map_ms != nullptr) {  // absent only on platforms without mmap
    EXPECT_EQ(map_ms->count, 1U);
  }
}

}  // namespace
}  // namespace pim::index
