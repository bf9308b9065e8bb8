// The two-stage pipeline's per-read behaviour (stage choice, strands, hit
// cap and order), driven through SoftwareEngine.
#include "src/align/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/genome/synthetic_genome.h"
#include "src/readsim/read_simulator.h"
#include "src/util/rng.h"

namespace pim::align {
namespace {

using genome::Base;
using genome::PackedSequence;

struct Fixture {
  PackedSequence text;
  index::FmIndex fm;
  explicit Fixture(std::size_t length = 5000, std::uint64_t seed = 1) {
    genome::SyntheticGenomeSpec spec;
    spec.length = length;
    spec.seed = seed;
    text = genome::generate_reference(spec);
    fm = index::FmIndex::build(text, {.bucket_width = 64});
  }
};

/// One read through SoftwareEngine, as a one-read batch.
AlignmentResult align_one(const index::FmIndex& fm,
                          const std::vector<Base>& read,
                          const AlignerOptions& options = {}) {
  BatchResult out;
  SoftwareEngine(fm, options).align_batch(ReadBatch::from_reads({read}), out);
  return out.result(0);
}

TEST(Aligner, ExactStageFindsPlantedRead) {
  const Fixture f;
  const auto read = f.text.slice(1000, 1060);
  const auto result = align_one(f.fm, read);
  EXPECT_EQ(result.stage, AlignmentStage::kExact);
  ASSERT_TRUE(result.best().has_value());
  EXPECT_EQ(result.best()->diffs, 0U);
  bool found_origin = false;
  for (const auto& hit : result.hits) {
    if (hit.position == 1000 && hit.strand == Strand::kForward) {
      found_origin = true;
    }
  }
  EXPECT_TRUE(found_origin);
}

TEST(Aligner, ReverseComplementReadAlignsToForwardOrigin) {
  const Fixture f;
  const auto fwd = f.text.slice(2000, 2050);
  const auto read = genome::reverse_complement(fwd);
  const auto result = align_one(f.fm, read);
  EXPECT_EQ(result.stage, AlignmentStage::kExact);
  bool found = false;
  for (const auto& hit : result.hits) {
    if (hit.position == 2000 && hit.strand == Strand::kReverseComplement) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Aligner, RcDisabledMissesReverseReads) {
  const Fixture f;
  AlignerOptions opt;
  opt.try_reverse_complement = false;
  opt.inexact.max_diffs = 0;
  const auto read = genome::reverse_complement(f.text.slice(2000, 2050));
  EXPECT_FALSE(align_one(f.fm, read, opt).aligned());
}

TEST(Aligner, MutatedReadFallsToInexactStage) {
  const Fixture f;
  AlignerOptions opt;
  opt.inexact.max_diffs = 2;
  auto read = f.text.slice(3000, 3050);
  read[10] = static_cast<Base>((static_cast<int>(read[10]) + 1) % 4);
  read[40] = static_cast<Base>((static_cast<int>(read[40]) + 2) % 4);
  const auto result = align_one(f.fm, read, opt);
  EXPECT_EQ(result.stage, AlignmentStage::kInexact);
  bool found = false;
  for (const auto& hit : result.hits) {
    if (hit.position == 3000) {
      found = true;
      EXPECT_LE(hit.diffs, 2U);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Aligner, OverMutatedReadStaysUnaligned) {
  const Fixture f;
  AlignerOptions opt;
  opt.inexact.max_diffs = 1;
  auto read = f.text.slice(100, 140);
  // Mutate 8 spread positions — far beyond the budget.
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t pos = i * 5;
    read[pos] = static_cast<Base>((static_cast<int>(read[pos]) + 1) % 4);
  }
  const auto result = align_one(f.fm, read, opt);
  EXPECT_EQ(result.stage, AlignmentStage::kUnaligned);
  EXPECT_FALSE(result.best().has_value());
}

TEST(Aligner, MaxHitsCapsOutput) {
  const PackedSequence text("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA");
  const auto fm = index::FmIndex::build(text, {.bucket_width = 8});
  AlignerOptions opt;
  opt.max_hits = 5;
  const auto result = align_one(fm, genome::encode("AAAA"), opt);
  EXPECT_EQ(result.stage, AlignmentStage::kExact);
  EXPECT_LE(result.hits.size(), 5U);
}

TEST(Aligner, HitsSortedByPosition) {
  const Fixture f;
  const auto result = align_one(f.fm, f.text.slice(10, 30));
  EXPECT_TRUE(std::is_sorted(
      result.hits.begin(), result.hits.end(),
      [](const AlignmentHit& a, const AlignmentHit& b) {
        return a.position < b.position;
      }));
}

TEST(Aligner, BatchStatsReflectStageMix) {
  const Fixture f(30000, 3);
  AlignerOptions opt;
  opt.inexact.max_diffs = 2;

  readsim::ReadSimSpec spec;
  spec.read_length = 70;
  spec.num_reads = 150;
  spec.population_variation_rate = 0.001;
  spec.sequencing_error_rate = 0.002;
  spec.seed = 21;
  const auto set = readsim::ReadSimulator(spec).generate(f.text);
  ReadBatchBuilder builder;
  for (const auto& r : set.reads) builder.add(r.bases);
  const ReadBatch batch = builder.build();

  BatchResult results;
  SoftwareEngine(f.fm, opt).align_batch(batch, results);
  const EngineStats& stats = results.stats();
  EXPECT_EQ(results.size(), batch.size());
  EXPECT_EQ(stats.reads_total, batch.size());
  EXPECT_EQ(stats.reads_exact + stats.reads_inexact + stats.reads_unaligned,
            stats.reads_total);
  // At these rates most reads align exactly, nearly all align overall.
  EXPECT_GT(stats.exact_fraction(), 0.6);
  EXPECT_LT(static_cast<double>(stats.reads_unaligned) /
                static_cast<double>(stats.reads_total),
            0.05);
}

TEST(Aligner, EveryExactStageReadTrulyOccurs) {
  const Fixture f(8000, 5);
  util::Xoshiro256 rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t start = rng.bounded(f.text.size() - 40);
    const auto read = f.text.slice(start, start + 40);
    const auto result = align_one(f.fm, read);
    ASSERT_EQ(result.stage, AlignmentStage::kExact);
    for (const auto& hit : result.hits) {
      if (hit.strand != Strand::kForward) continue;
      EXPECT_EQ(f.text.slice(hit.position, hit.position + 40), read);
    }
  }
}

}  // namespace
}  // namespace pim::align
