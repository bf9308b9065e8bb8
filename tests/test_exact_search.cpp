#include "src/align/backward_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "src/align/engine.h"
#include "src/genome/synthetic_genome.h"
#include "src/index/index_io.h"
#include "src/index/mapped_index.h"
#include "src/pim/pim_engine.h"
#include "src/pim/platform.h"
#include "src/util/rng.h"
#include "tests/support/naive_search.h"
#include "tests/support/search_trace.h"
#include "tests/temp_dir.h"

namespace pim::align {
namespace {

using genome::Base;
using genome::PackedSequence;

TEST(ExactSearch, PaperExampleCtaInTgcta) {
  const PackedSequence text("TGCTA");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 2});
  const ExactResult result = exact_search(fm, genome::encode("CTA"));
  EXPECT_TRUE(result.found());
  EXPECT_EQ(result.occurrence_count(), 1U);
  EXPECT_EQ(result.steps, 3U);
  const auto positions = exact_locate(fm, genome::encode("CTA"));
  const std::vector<std::uint64_t> expect = {2};
  EXPECT_EQ(positions, expect);
}

TEST(ExactSearch, MissingPatternFails) {
  const PackedSequence text("TGCTA");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 2});
  const ExactResult result = exact_search(fm, genome::encode("AAA"));
  EXPECT_FALSE(result.found());
  EXPECT_TRUE(exact_locate(fm, genome::encode("AAA")).empty());
}

TEST(ExactSearch, EarlyExitOnCollapse) {
  const PackedSequence text("CCCCCCCC");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 4});
  // Rightmost char G kills the interval immediately; remaining steps skipped.
  const ExactResult result = exact_search(fm, genome::encode("CCCCCCG"));
  EXPECT_FALSE(result.found());
  EXPECT_EQ(result.steps, 1U);
}

TEST(ExactSearch, EmptyReadMatchesEverywhere) {
  const PackedSequence text("ACGT");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 2});
  const ExactResult result = exact_search(fm, {});
  EXPECT_TRUE(result.found());
  EXPECT_EQ(result.interval, fm.whole_interval());
  EXPECT_EQ(result.steps, 0U);
}

TEST(ExactSearch, WholeReferenceAsRead) {
  const PackedSequence text("GATTACAGATTACA");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 4});
  const auto positions = exact_locate(fm, text.unpack());
  const std::vector<std::uint64_t> expect = {0};
  EXPECT_EQ(positions, expect);
}

TEST(ExactSearch, OverlappingOccurrences) {
  const PackedSequence text("AAAAA");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 2});
  const auto positions = exact_locate(fm, genome::encode("AA"));
  const std::vector<std::uint64_t> expect = {0, 1, 2, 3};
  EXPECT_EQ(positions, expect);
}

TEST(ExactSearch, TraceMatchesStepCount) {
  const PackedSequence text("TGCTA");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 2});
  const auto trace = exact_search_trace(fm, genome::encode("CTA"));
  ASSERT_EQ(trace.size(), 3U);
  EXPECT_TRUE(trace.back().valid());
  // Intervals shrink monotonically along the trace.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i].count(), trace[i - 1].count());
  }
}

// Property: FM-index exact search equals brute-force scanning for random
// references and reads (planted and random), across bucket widths.
// Both fields are 64-bit so the struct has no padding: the test names print
// the param's raw bytes, and uninitialised padding made them vary by build.
struct ExactParam {
  std::uint64_t bucket;
  std::uint64_t seed;
};

class ExactSearchProperty : public ::testing::TestWithParam<ExactParam> {};

TEST_P(ExactSearchProperty, MatchesNaiveScan) {
  const auto [bucket, seed] = GetParam();
  genome::SyntheticGenomeSpec spec;
  spec.length = 3000;
  spec.seed = seed;
  spec.repeat_fraction = 0.5;
  spec.repeat_unit_length = 60;
  const PackedSequence text = genome::generate_reference(spec);
  const auto fm = index::FmIndex::build(
      text, {.bucket_width = static_cast<std::uint32_t>(bucket)});
  util::Xoshiro256 rng(seed + 1000);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Base> read;
    if (trial % 2 == 0) {
      // Planted read: guaranteed to occur.
      const std::size_t len = 8 + rng.bounded(40);
      const std::size_t start = rng.bounded(text.size() - len);
      read = text.slice(start, start + len);
    } else {
      // Random read: usually absent.
      const std::size_t len = 8 + rng.bounded(20);
      for (std::size_t i = 0; i < len; ++i) {
        read.push_back(static_cast<Base>(rng.bounded(4)));
      }
    }
    EXPECT_EQ(exact_locate(fm, read), naive_exact_positions(text, read))
        << "bucket=" << bucket << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactSearchProperty,
    ::testing::Values(ExactParam{1, 1}, ExactParam{16, 2}, ExactParam{64, 3},
                      ExactParam{128, 4}, ExactParam{128, 5}));

// Stage one stops walking once the interval is one row and verifies the
// rest of the read against the reference. These cases hold the engine at
// max_diffs = 0, max_hits = 0 to Algorithm 1 + locate_all on both strands.

/// Algorithm 1 (walked to the end) plus SA locate: the stage-one oracle.
std::vector<std::uint64_t> algorithm_one(const index::FmIndex& fm,
                                         const std::vector<Base>& read) {
  const ExactResult result = exact_search(fm, read);
  if (!result.found()) return {};
  return fm.locate_all(result.interval);
}

/// Runs the engine over `reads` and checks every read's hits, strand by
/// strand, against the oracle. Returns the engine's stats.
EngineStats expect_engine_matches_algorithm_one(
    const index::FmIndex& fm, const std::vector<std::vector<Base>>& reads) {
  AlignerOptions options;
  options.inexact.max_diffs = 0;
  options.max_hits = 0;
  BatchResult result;
  SoftwareEngine(fm, options).align_batch(ReadBatch::from_reads(reads), result);
  EXPECT_EQ(result.size(), reads.size());
  for (std::size_t i = 0; i < reads.size() && i < result.size(); ++i) {
    const auto want_fwd = algorithm_one(fm, reads[i]);
    const auto want_rc =
        algorithm_one(fm, genome::reverse_complement(reads[i]));
    std::vector<std::uint64_t> got_fwd, got_rc;
    for (const auto& hit : result.hits(i)) {
      EXPECT_EQ(hit.diffs, 0U);
      (hit.strand == Strand::kForward ? got_fwd : got_rc)
          .push_back(hit.position);
    }
    std::sort(got_fwd.begin(), got_fwd.end());
    std::sort(got_rc.begin(), got_rc.end());
    EXPECT_EQ(got_fwd, want_fwd) << "read " << i << " forward";
    EXPECT_EQ(got_rc, want_rc) << "read " << i << " reverse complement";
    EXPECT_EQ(exact_locate(fm, reads[i]), want_fwd) << "read " << i;
    const bool any = !want_fwd.empty() || !want_rc.empty();
    EXPECT_EQ(result.stage(i),
              any ? AlignmentStage::kExact : AlignmentStage::kUnaligned)
        << "read " << i;
  }
  EXPECT_EQ(result.stats().exact_searches, 2 * reads.size());
  return result.stats();
}

/// The same reads on the simulated platform, whose stage one starts from
/// the whole interval and walks Algorithm 1: the hits and both search
/// counters must equal the software engine's `want` (from
/// expect_engine_matches_algorithm_one).
void expect_platform_matches(const index::FmIndex& fm,
                             const std::vector<std::vector<Base>>& reads,
                             const EngineStats& want) {
  AlignerOptions options;
  options.inexact.max_diffs = 0;
  options.max_hits = 0;
  const ReadBatch batch = ReadBatch::from_reads(reads);
  BatchResult software, on_platform;
  SoftwareEngine(fm, options).align_batch(batch, software);
  hw::TimingEnergyModel timing;
  hw::PimAlignerPlatform platform(fm, timing);
  const auto report = hw::PimEngine(platform, options).run(batch, on_platform);
  ASSERT_EQ(on_platform.size(), software.size());
  const auto placements = [](const BatchResult& result, std::size_t i) {
    std::vector<std::pair<std::uint64_t, Strand>> out;
    for (const auto& hit : result.hits(i)) {
      out.emplace_back(hit.position, hit.strand);
    }
    return out;
  };
  for (std::size_t i = 0; i < software.size(); ++i) {
    EXPECT_EQ(placements(on_platform, i), placements(software, i))
        << "read " << i;
  }
  EXPECT_EQ(report.stats.exact_searches, want.exact_searches);
  EXPECT_EQ(report.stats.exact_verified, want.exact_verified);
}

/// Random reference with exact tandem duplicates appended: three copies of
/// one 400-bp block, so intervals over it stay three rows past mid-read.
PackedSequence with_tandem_duplicates(PackedSequence text,
                                      std::uint64_t seed) {
  const auto block = genome::generate_uniform(400, seed).unpack();
  for (int copy = 0; copy < 3; ++copy) {
    for (const auto b : block) text.push_back(b);
  }
  return text;
}

/// Planted reads (30 and 100 bp, and k - 1, k and k + 1 around the index's
/// k-mer table length), the text ends, a mismatch at read[0], m = 1, and
/// random reads.
std::vector<std::vector<Base>> stage_one_reads(const PackedSequence& text,
                                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::size_t n = text.size();
  std::vector<std::vector<Base>> reads;
  for (int i = 0; i < 150; ++i) {
    const std::size_t m = i % 2 == 0 ? 100 : 30;
    const std::size_t start = rng.bounded(n - m + 1);
    reads.push_back(text.slice(start, start + m));
  }
  const std::size_t k = index::FmIndex::kmer_length_for(n);
  for (std::size_t m = std::max<std::size_t>(k, 2) - 1; m <= k + 1; ++m) {
    for (int i = 0; i < 10; ++i) {
      const std::size_t start = rng.bounded(n - m + 1);
      reads.push_back(text.slice(start, start + m));
      std::vector<Base> random(m);
      for (auto& b : random) b = static_cast<Base>(rng.bounded(4));
      reads.push_back(std::move(random));
    }
  }
  for (const std::size_t m : {1u, 30u, 100u}) {
    reads.push_back(text.slice(0, m));      // p = 0
    reads.push_back(text.slice(n - m, n));  // p = n - m
  }
  for (int i = 0; i < 20; ++i) {
    // Only read[0] differs from the text: the last compared base decides.
    const std::size_t start = rng.bounded(n - 100 + 1);
    auto read = text.slice(start, start + 100);
    read[0] = static_cast<Base>((static_cast<int>(read[0]) + 1 + i % 3) % 4);
    reads.push_back(std::move(read));
  }
  for (int i = 0; i < 20; ++i) {
    std::vector<Base> read(30 + rng.bounded(70));
    for (auto& b : read) b = static_cast<Base>(rng.bounded(4));
    reads.push_back(std::move(read));
  }
  return reads;
}

TEST(StageOneEquivalence, RandomAndRepeatRichReferences) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    genome::SyntheticGenomeSpec spec;
    spec.length = 60000;
    spec.seed = seed;
    spec.repeat_fraction = 0.6;
    spec.repeat_divergence = 0.002;
    const PackedSequence repeats =
        with_tandem_duplicates(genome::generate_reference(spec), seed + 10);
    const PackedSequence random = genome::generate_uniform(20000, seed);
    for (const PackedSequence* text : {&random, &repeats}) {
      const auto fm = index::FmIndex::build(*text, {.bucket_width = 128});
      const auto reads = stage_one_reads(*text, seed);
      const EngineStats stats = expect_engine_matches_algorithm_one(fm, reads);
      // The one-row path ran, and not for every search.
      EXPECT_GT(stats.exact_verified, 0U);
      EXPECT_LT(stats.exact_verified, stats.exact_searches);
      EXPECT_GT(fm.kmer_length(), 0U);
      expect_platform_matches(fm, reads, stats);
    }
  }
}

TEST(StageOneEquivalence, SuffixBeforeRestAndReadsLongerThanText) {
  const PackedSequence text = genome::generate_uniform(3000, 7);
  const auto fm = index::FmIndex::build(text, {.bucket_width = 64});
  std::vector<std::vector<Base>> reads;
  // The read's suffix is T[0, 40), unique, so its row sits at q < rest: no
  // placement fits before the text start.
  auto prefix = genome::generate_uniform(20, 8).unpack();
  auto suffix = text.slice(0, 40);
  prefix.insert(prefix.end(), suffix.begin(), suffix.end());
  reads.push_back(prefix);
  // m > n: the whole text with bases on either side.
  auto longer = text.unpack();
  longer.push_back(Base::A);
  reads.push_back(longer);
  longer.insert(longer.begin(), Base::C);
  reads.push_back(longer);
  reads.push_back(text.unpack());  // m = n, p = 0
  EXPECT_GT(expect_engine_matches_algorithm_one(fm, reads).exact_verified, 0U);

  // An 8-base text: a read of length n + 5, a repeated 4-mer, m = 1. Too
  // short for a k-mer table (k = 0): stage one starts from the whole
  // interval.
  const PackedSequence tiny("ACGTTGCA");
  const auto tiny_fm = index::FmIndex::build(tiny, {.bucket_width = 4});
  ASSERT_EQ(tiny_fm.kmer_length(), 0U);
  expect_engine_matches_algorithm_one(
      tiny_fm, {genome::encode("ACGTTGCAACGTT"), genome::encode("TGCA"),
                genome::encode("G")});
  // k = 0 on the platform's 128-bp rows too.
  const PackedSequence short_text = genome::generate_uniform(50, 9);
  const auto short_fm =
      index::FmIndex::build(short_text, {.bucket_width = 128});
  ASSERT_EQ(short_fm.kmer_length(), 0U);
  std::vector<std::vector<Base>> short_reads = {genome::encode("ACGTACGT")};
  for (const std::size_t m : {1u, 4u, 12u, 50u}) {
    for (std::size_t start = 0; start + m <= 50; start += 7) {
      short_reads.push_back(short_text.slice(start, start + m));
    }
  }
  expect_platform_matches(
      short_fm, short_reads,
      expect_engine_matches_algorithm_one(short_fm, short_reads));
}

/// Reads whose table start decides the outcome on `fm`: for every k-mer
/// whose entry is empty after a one-row suffix, and for every one-row
/// k-mer, the 30 text bases before one of the k-mer's rows (or before
/// `anchor`) followed by the k-mer.
std::vector<std::vector<Base>> table_edge_reads(const index::FmIndex& fm,
                                                std::size_t anchor,
                                                std::size_t& absent) {
  const std::size_t k = fm.kmer_length();
  const PackedSequence& text = fm.reference();
  std::vector<std::vector<Base>> reads;
  absent = 0;
  for (std::size_t code = 0; code < (std::size_t{1} << (2 * k)); ++code) {
    std::vector<Base> kmer(k);
    for (std::size_t i = 0; i < k; ++i) {
      kmer[i] = static_cast<Base>((code >> (2 * (k - 1 - i))) & 3);
    }
    std::vector<Base> probe = {Base::A};
    probe.insert(probe.end(), kmer.begin(), kmer.end());
    const index::SearchStart start = fm.exact_start(probe);
    std::size_t at = anchor;
    if (start.interval.count() == 1) {
      at = fm.locate(start.interval.low);
      if (at < 30) continue;
    } else if (start.interval.valid() || !start.passed_one_row) {
      continue;
    } else {
      ++absent;
    }
    auto read = text.slice(at - 30, at);
    read.insert(read.end(), kmer.begin(), kmer.end());
    reads.push_back(std::move(read));
  }
  return reads;
}

// On a 4%-GC text many GC-rich k-mers are absent right after a one-row
// suffix: the software engine starts such a read from an empty table entry
// and must still count it as verified, as the platform, which walks
// Algorithm 1 from the whole interval, does. Built, stream-loaded and
// mapped indexes each carry the table.
TEST(StageOneEquivalence, EmptyTableEntriesAfterOneRowCountAsVerified) {
  const PackedSequence text = genome::generate_uniform(20000, 11, 0.04);
  const auto built = index::FmIndex::build(text, {.bucket_width = 128});
  ASSERT_EQ(built.kmer_length(), 5U);
  std::size_t absent = 0;
  auto reads = table_edge_reads(built, 10000, absent);
  ASSERT_GT(absent, 0U);
  const std::size_t edge_reads = reads.size();
  ASSERT_GT(edge_reads, absent);  // one-row k-mers too
  const auto more = stage_one_reads(text, 11);
  reads.insert(reads.end(), more.begin(), more.end());

  std::stringstream buffer;
  index::save_index(buffer, built);
  const index::LoadedIndex streamed = index::load_index(buffer);
  tests::TempDir dir;
  const std::string path = dir.file("skewed.index");
  index::save_index_file(path, built);
  const auto mapped = index::MappedIndex::open(path);
  ASSERT_TRUE(mapped.mapped());

  for (const index::FmIndex* fm : {&built, &streamed.index, &mapped.index()}) {
    const EngineStats stats = expect_engine_matches_algorithm_one(*fm, reads);
    // Each absent edge read is verified on its forward strand.
    EXPECT_GE(stats.exact_verified, absent);
    expect_platform_matches(*fm, reads, stats);
  }
}

TEST(StageOneEquivalence, LoadedAndMappedIndexes) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 40000;
  spec.seed = 4;
  spec.repeat_fraction = 0.6;
  spec.repeat_divergence = 0.002;
  const PackedSequence text =
      with_tandem_duplicates(genome::generate_reference(spec), 14);
  const auto built = index::FmIndex::build(text, {.bucket_width = 128});
  const auto reads = stage_one_reads(text, 4);
  const EngineStats want = expect_engine_matches_algorithm_one(built, reads);

  std::stringstream buffer;
  index::save_index(buffer, built);
  const index::LoadedIndex streamed = index::load_index(buffer);
  EXPECT_TRUE(streamed.index.reference() == text);
  EXPECT_EQ(expect_engine_matches_algorithm_one(streamed.index, reads)
                .exact_verified,
            want.exact_verified);

  tests::TempDir dir;
  const std::string path = dir.file("stage_one.index");
  index::save_index_file(path, built);
  const auto mapped = index::MappedIndex::open(path);
  ASSERT_TRUE(mapped.mapped());
  EXPECT_FALSE(mapped.index().reference().owns_storage());  // borrowed text
  EXPECT_EQ(&mapped.reference(), &mapped.index().reference());
  EXPECT_EQ(expect_engine_matches_algorithm_one(mapped.index(), reads)
                .exact_verified,
            want.exact_verified);
  expect_platform_matches(mapped.index(), reads, want);
}

}  // namespace
}  // namespace pim::align
