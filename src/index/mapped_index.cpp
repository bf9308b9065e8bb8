#include "src/index/mapped_index.h"

#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define PIM_INDEX_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace pim::index {

namespace {

using detail::FileHeaderV2;
using detail::fnv1a;
using detail::kFnvOffset;
using detail::SectionEntry;
using detail::SectionId;
using detail::section_name;

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("index_io: " + message);
}

#if PIM_INDEX_HAVE_MMAP

// Scoped mapping so every validation-failure path unmaps exactly once; the
// successful path releases ownership into the MappedIndex.
struct ScopedMap {
  void* base = nullptr;
  std::size_t bytes = 0;

  ~ScopedMap() {
    if (base != nullptr) ::munmap(base, bytes);
  }
  void* release() { return std::exchange(base, nullptr); }
};

const SectionEntry& find_entry(const std::vector<SectionEntry>& entries,
                               SectionId id) {
  for (const auto& entry : entries) {
    if (entry.id == static_cast<std::uint32_t>(id)) return entry;
  }
  fail(std::string("section '") + section_name(id) + "': missing section");
}

void drop_pages(const unsigned char* base, const SectionEntry& entry) {
  // Round inward to whole pages; partial edge pages stay resident (shared
  // with the neighbouring section anyway).
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t begin = (entry.offset + page - 1) / page * page;
  const std::uint64_t end = (entry.offset + entry.payload_bytes) / page * page;
  if (end <= begin) return;
  // Advisory only — failure just means the pages stay resident.
  (void)::madvise(const_cast<unsigned char*>(base) + begin,
                  static_cast<std::size_t>(end - begin), MADV_DONTNEED);
}

#endif  // PIM_INDEX_HAVE_MMAP

}  // namespace

MappedIndex::~MappedIndex() { unmap(); }

MappedIndex::MappedIndex(MappedIndex&& other) noexcept
    : loaded_(std::move(other.loaded_)),
      map_base_(std::exchange(other.map_base_, nullptr)),
      map_bytes_(std::exchange(other.map_bytes_, 0)),
      file_bytes_(std::exchange(other.file_bytes_, 0)) {}

MappedIndex& MappedIndex::operator=(MappedIndex&& other) noexcept {
  if (this != &other) {
    unmap();
    // The borrowed structures point into the mapping, not into `other`, so
    // moving the LoadedIndex cannot dangle.
    loaded_ = std::move(other.loaded_);
    map_base_ = std::exchange(other.map_base_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    file_bytes_ = std::exchange(other.file_bytes_, 0);
  }
  return *this;
}

void MappedIndex::unmap() noexcept {
#if PIM_INDEX_HAVE_MMAP
  if (map_base_ != nullptr) {
    // Drop the borrowing structures before the region they borrow.
    loaded_ = LoadedIndex{};
    ::munmap(map_base_, map_bytes_);
    map_base_ = nullptr;
    map_bytes_ = 0;
  }
#endif
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
#if PIM_INDEX_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st{};
    const bool stat_ok = ::fstat(fd, &st) == 0 && st.st_size > 0;
    const auto file_size = stat_ok ? static_cast<std::size_t>(st.st_size) : 0;
    ScopedMap map;
    if (stat_ok) {
      void* base = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base != MAP_FAILED) {
        map.base = base;
        map.bytes = file_size;
      }
    }
    ::close(fd);  // The mapping keeps the file alive.

    if (map.base != nullptr) {
      if (map.bytes < 2 * sizeof(std::uint32_t)) fail("truncated file");
      const auto* bytes = static_cast<const unsigned char*>(map.base);
      std::uint32_t magic = 0;
      std::uint32_t version = 0;
      std::memcpy(&magic, bytes, sizeof(magic));
      std::memcpy(&version, bytes + sizeof(magic), sizeof(version));
      if (magic != kIndexMagic) fail("bad magic (not a PIM-Aligner index)");

      if (version == kIndexVersion) {
        if (map.bytes < sizeof(FileHeaderV2)) fail("truncated file");
        FileHeaderV2 header;
        std::memcpy(&header, bytes, sizeof(header));
        if (header.num_sections == 0 ||
            header.num_sections > 64) {  // kMaxSections, pre-table sanity
          fail("implausible section count");
        }
        const std::uint64_t table_bytes =
            std::uint64_t{header.num_sections} * sizeof(SectionEntry);
        const std::uint64_t table_end =
            sizeof(FileHeaderV2) + table_bytes + sizeof(std::uint64_t);
        if (table_end > map.bytes) fail("truncated file");
        std::vector<SectionEntry> table(header.num_sections);
        std::memcpy(table.data(), bytes + sizeof(FileHeaderV2),
                    static_cast<std::size_t>(table_bytes));
        std::uint64_t stored_table_checksum = 0;
        std::memcpy(&stored_table_checksum,
                    bytes + sizeof(FileHeaderV2) + table_bytes,
                    sizeof(stored_table_checksum));
        if (fnv1a(kFnvOffset, table.data(),
                  static_cast<std::size_t>(table_bytes)) !=
            stored_table_checksum) {
          fail("section table checksum mismatch");
        }
        const auto entries =
            detail::validate_v2_layout(header, table.data(), map.bytes);

        if (options.verify_checksums) {
          for (const auto& entry : entries) {
            const auto id = static_cast<SectionId>(entry.id);
            if (fnv1a(kFnvOffset, bytes + entry.offset,
                      static_cast<std::size_t>(entry.payload_bytes)) !=
                entry.checksum) {
              fail(std::string("section '") + section_name(id) +
                   "': checksum mismatch");
            }
            if (options.drop_pages_after_verify) drop_pages(bytes, entry);
          }
        }

        // Index lookups are random-access by nature (backward search hops
        // across the BWT, locate across the SA samples); default readahead
        // would fault in ~128 KB per touch and balloon RSS far past the
        // working set. Advised after verification so the sequential
        // checksum pass above still enjoyed readahead.
        (void)::madvise(map.base, map.bytes, MADV_RANDOM);
#ifdef MADV_NOHUGEPAGE
        // Likewise decline huge-folio mapping: one random locate should not
        // make 2 MB of SA samples resident.
        (void)::madvise(map.base, map.bytes, MADV_NOHUGEPAGE);
#endif

        const auto borrow_u64 = [bytes](const SectionEntry& entry) {
          return util::Storage<std::uint64_t>::borrowed(
              reinterpret_cast<const std::uint64_t*>(bytes + entry.offset),
              static_cast<std::size_t>(entry.payload_bytes / 8));
        };
        const auto borrow_u32 = [bytes](const SectionEntry& entry) {
          return util::Storage<std::uint32_t>::borrowed(
              reinterpret_cast<const std::uint32_t*>(bytes + entry.offset),
              static_cast<std::size_t>(entry.payload_bytes / 4));
        };
        const auto& markers_entry = find_entry(entries, SectionId::kMarkers);
        const auto& chrom_entry =
            find_entry(entries, SectionId::kChromosomes);

        MappedIndex result;
        result.loaded_ = detail::assemble_v2(
            header, borrow_u64(find_entry(entries, SectionId::kReference)),
            borrow_u64(find_entry(entries, SectionId::kBwt)),
            util::Storage<OccCheckpoint>::borrowed(
                reinterpret_cast<const OccCheckpoint*>(bytes +
                                                       markers_entry.offset),
                static_cast<std::size_t>(markers_entry.payload_bytes /
                                         sizeof(OccCheckpoint))),
            borrow_u32(find_entry(entries, SectionId::kSaSamples)),
            borrow_u64(find_entry(entries, SectionId::kSaRows)),
            borrow_u32(find_entry(entries, SectionId::kSaRanks)),
            detail::parse_chromosomes(
                bytes + chrom_entry.offset,
                static_cast<std::size_t>(chrom_entry.payload_bytes)));
        result.map_bytes_ = map.bytes;
        result.file_bytes_ = header.file_bytes;
        result.map_base_ = map.release();
        if (metrics != nullptr) {
          metrics->histogram("index.load.map_ms")
              .observe(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count());
        }
        return result;
      }
      // v1 (or future versions load_index knows): fall through to the
      // stream loader below. Unsupported versions fail there with the
      // canonical error.
    }
  }
#endif  // PIM_INDEX_HAVE_MMAP
  (void)options;
  // Graceful fallback: no mmap on this platform, the file could not be
  // mapped, or it is a v1 artifact (whose tables are rebuilt, not mapped).
  MappedIndex result;
  result.loaded_ = load_index_file(path, metrics);
  result.file_bytes_ = 0;
  {
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    if (probe) result.file_bytes_ = static_cast<std::uint64_t>(probe.tellg());
  }
  return result;
}

}  // namespace pim::index
