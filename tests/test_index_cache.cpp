// IndexCache suite (S42): LRU residency of mapped artifacts, and the
// bit-identity guarantee across index provenance — an engine must produce
// the same results whether its FmIndex was built in memory, stream-loaded,
// or assembled zero-copy over an mmap region (including via ShardedEngine).
#include "src/serve/index_cache.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/align/engine.h"
#include "src/align/sharded_engine.h"
#include "src/genome/synthetic_genome.h"
#include "src/index/index_io.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "tests/temp_dir.h"

namespace pim::serve {
namespace {

struct Artifact {
  std::string id;
  std::string path;
  genome::PackedSequence reference;
  index::FmIndex fm;
};

/// Builds `count` distinct references and persists each as a v2 artifact
/// in `dir`.
std::vector<Artifact> make_artifacts(const tests::TempDir& dir,
                                     std::size_t count,
                                     std::size_t length = 20000) {
  std::vector<Artifact> artifacts;
  for (std::size_t i = 0; i < count; ++i) {
    Artifact a;
    a.id = "ref" + std::to_string(i);
    a.path = dir.file(a.id + ".index");
    genome::SyntheticGenomeSpec spec;
    spec.length = length;
    spec.seed = 900 + i;
    a.reference = genome::generate_reference(spec);
    a.fm = index::FmIndex::build(a.reference, {.bucket_width = 128});
    index::save_index_file(a.path, a.fm, {{a.id, 0, a.reference.size()}});
    artifacts.push_back(std::move(a));
  }
  return artifacts;
}

TEST(IndexCache, RegistrationValidation) {
  const tests::TempDir dir;
  IndexCache cache;
  cache.add_reference("a", dir.file("nonexistent_a.index"));
  EXPECT_TRUE(cache.has_reference("a"));
  EXPECT_FALSE(cache.has_reference("b"));
  EXPECT_THROW(cache.add_reference("", dir.file("x")), std::invalid_argument);
  EXPECT_THROW(cache.add_reference("a", dir.file("other")), std::invalid_argument);
  EXPECT_THROW(cache.acquire("unregistered"), std::out_of_range);
  // Registered but unloadable: the open error propagates, nothing becomes
  // resident.
  EXPECT_THROW(cache.acquire("a"), std::runtime_error);
  EXPECT_FALSE(cache.resident("a"));
}

TEST(IndexCache, LruEvictionAtCapacity) {
  const tests::TempDir dir;
  const auto artifacts = make_artifacts(dir, 3, 8000);
  IndexCacheOptions options;
  options.max_resident = 2;
  IndexCache cache(options);
  for (const auto& a : artifacts) cache.add_reference(a.id, a.path);

  auto r0 = cache.acquire("ref0");
  auto r1 = cache.acquire("ref1");
  EXPECT_TRUE(cache.resident("ref0"));
  EXPECT_TRUE(cache.resident("ref1"));
  EXPECT_EQ(cache.resident_ids(), (std::vector<std::string>{"ref1", "ref0"}));

  // Touch ref0 so ref1 becomes least-recently-used, then load ref2.
  (void)cache.acquire("ref0");
  auto r2 = cache.acquire("ref2");
  EXPECT_TRUE(cache.resident("ref0"));
  EXPECT_FALSE(cache.resident("ref1"));
  EXPECT_TRUE(cache.resident("ref2"));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1U);
  EXPECT_EQ(stats.misses, 3U);
  EXPECT_EQ(stats.evictions, 1U);
  EXPECT_EQ(stats.resident, 2U);
  EXPECT_GT(stats.resident_bytes, 0U);

  // The evicted index survives through the caller's pin: eviction drops the
  // cache's reference, never the user's.
  EXPECT_EQ(r1->index().num_rows(), artifacts[1].fm.num_rows());
  EXPECT_TRUE(r1->reference() == artifacts[1].reference);

  // Re-acquiring the evicted id reloads it (another miss + eviction).
  auto r1_again = cache.acquire("ref1");
  EXPECT_EQ(cache.stats().misses, 4U);
  EXPECT_NE(r1_again.get(), r1.get());  // distinct load, same content
  EXPECT_TRUE(r1_again->reference() == r1->reference());
}

TEST(IndexCache, PublishesMetrics) {
  const tests::TempDir dir;
  const auto artifacts = make_artifacts(dir, 2, 6000);
  obs::MetricsRegistry registry;
  IndexCacheOptions options;
  options.max_resident = 1;
  options.metrics = &registry;
  IndexCache cache(options);
  for (const auto& a : artifacts) cache.add_reference(a.id, a.path);

  (void)cache.acquire("ref0");
  (void)cache.acquire("ref0");
  (void)cache.acquire("ref1");  // evicts ref0

  const auto snapshot = registry.scrape();
  EXPECT_EQ(snapshot.counter_value("service.index_cache.hits"), 1U);
  EXPECT_EQ(snapshot.counter_value("service.index_cache.misses"), 2U);
  EXPECT_EQ(snapshot.counter_value("service.index_cache.evictions"), 1U);
  EXPECT_GT(snapshot.gauge_value("service.index_cache.resident_bytes"), 0.0);
  // index.load.* flows through the cache's opens as well.
  const auto* map_ms = snapshot.histogram("index.load.map_ms");
  const auto* stream_ms = snapshot.histogram("index.load.stream_ms");
  EXPECT_TRUE((map_ms != nullptr && map_ms->count == 2) ||
              (stream_ms != nullptr && stream_ms->count == 2));
}

TEST(IndexCache, MaxResidentClampedToOne) {
  const tests::TempDir dir;
  const auto artifacts = make_artifacts(dir, 1, 4000);
  IndexCacheOptions options;
  options.max_resident = 0;  // clamped
  IndexCache cache(options);
  cache.add_reference(artifacts[0].id, artifacts[0].path);
  auto pinned = cache.acquire("ref0");
  EXPECT_TRUE(cache.resident("ref0"));
  EXPECT_EQ(cache.stats().resident, 1U);
}

// ---------------------------------------------------------------------------
// Bit-identity across provenance, through real engines.
// ---------------------------------------------------------------------------

std::vector<std::vector<genome::Base>> sample_reads(
    const genome::PackedSequence& reference, std::size_t count) {
  util::Xoshiro256 rng(5);
  std::vector<std::vector<genome::Base>> reads;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = 60;
    const std::size_t start = rng.bounded(reference.size() - len);
    auto read = reference.slice(start, start + len);
    if (i % 2 == 1) {
      const std::size_t pos = rng.bounded(read.size());
      read[pos] = genome::complement(read[pos]);
    }
    if (i % 3 == 2) read = genome::reverse_complement(read);
    reads.push_back(std::move(read));
  }
  return reads;
}

void expect_same_results(const align::BatchResult& want,
                         const align::BatchResult& got, const char* label) {
  const auto a = want.to_results();
  const auto b = got.to_results();
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stage, b[i].stage) << label << " read " << i;
    ASSERT_EQ(a[i].hits.size(), b[i].hits.size()) << label << " read " << i;
    for (std::size_t h = 0; h < a[i].hits.size(); ++h) {
      EXPECT_EQ(a[i].hits[h].position, b[i].hits[h].position)
          << label << " read " << i << " hit " << h;
      EXPECT_EQ(a[i].hits[h].diffs, b[i].hits[h].diffs)
          << label << " read " << i << " hit " << h;
      EXPECT_EQ(a[i].hits[h].strand, b[i].hits[h].strand)
          << label << " read " << i << " hit " << h;
    }
  }
}

TEST(IndexProvenance, EngineResultsIdenticalBuiltStreamMapped) {
  const tests::TempDir dir;
  const auto artifacts = make_artifacts(dir, 1);
  const auto& a = artifacts[0];
  const auto reads = sample_reads(a.reference, 64);
  const auto batch = align::ReadBatch::from_reads(reads);
  align::AlignerOptions options;
  options.inexact.max_diffs = 2;

  align::BatchResult built_result;
  align::SoftwareEngine(a.fm, options).align_batch(batch, built_result);

  const auto streamed = index::load_index_file(a.path);
  align::BatchResult stream_result;
  align::SoftwareEngine(streamed.index, options)
      .align_batch(batch, stream_result);
  expect_same_results(built_result, stream_result, "stream");

  const auto mapped = index::MappedIndex::open(a.path);
  align::BatchResult mapped_result;
  align::SoftwareEngine(mapped.index(), options)
      .align_batch(batch, mapped_result);
  expect_same_results(built_result, mapped_result, "mapped");
}

TEST(IndexProvenance, ShardedEngineOverMappedIndexIdentical) {
  const tests::TempDir dir;
  const auto artifacts = make_artifacts(dir, 1);
  const auto& a = artifacts[0];
  const auto reads = sample_reads(a.reference, 48);
  const auto batch = align::ReadBatch::from_reads(reads);
  align::AlignerOptions options;
  options.inexact.max_diffs = 2;

  align::BatchResult built_result;
  align::SoftwareEngine(a.fm, options).align_batch(batch, built_result);

  const auto mapped = index::MappedIndex::open(a.path);
  std::vector<std::unique_ptr<align::AlignmentEngine>> shards;
  for (int s = 0; s < 3; ++s) {
    shards.push_back(
        std::make_unique<align::SoftwareEngine>(mapped.index(), options));
  }
  align::ShardedEngine sharded(std::move(shards));
  align::BatchResult sharded_result;
  sharded.align_batch(batch, sharded_result);
  expect_same_results(built_result, sharded_result, "sharded-mapped");
}

TEST(IndexProvenance, CacheAcquiredIndexIdenticalToBuilt) {
  const tests::TempDir dir;
  const auto artifacts = make_artifacts(dir, 2);
  IndexCache cache;
  for (const auto& a : artifacts) cache.add_reference(a.id, a.path);
  for (const auto& a : artifacts) {
    const auto pinned = cache.acquire(a.id);
    const auto reads = sample_reads(a.reference, 32);
    const auto batch = align::ReadBatch::from_reads(reads);
    align::AlignerOptions options;
    options.inexact.max_diffs = 2;
    align::BatchResult want, got;
    align::SoftwareEngine(a.fm, options).align_batch(batch, want);
    align::SoftwareEngine(pinned->index(), options).align_batch(batch, got);
    expect_same_results(want, got, a.id.c_str());
  }
}

}  // namespace
}  // namespace pim::serve
