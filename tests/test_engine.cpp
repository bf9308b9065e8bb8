// Equivalence suite for the unified batch alignment engine (S37):
//   * SoftwareEngine and PimEngine must produce bit-identical results and
//     stage/search counters on randomized reads (exact, inexact,
//     reverse-complement, unaligned);
//   * chunked parallel scheduling must be positionally deterministic across
//     thread counts and chunk sizes;
//   * ReadBatch must round-trip reads, names, and qualities losslessly;
//   * EngineStats must carry the per-stage counters through every merge
//     path.
#include "src/align/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/accel/measured_load.h"
#include "src/align/backward_search.h"
#include "src/align/inexact_search.h"
#include "src/align/parallel_aligner.h"
#include "src/align/sam_writer.h"
#include "src/align/sharded_engine.h"
#include "src/genome/synthetic_genome.h"
#include "src/pim/pim_engine.h"
#include "src/pim/pim_fleet.h"
#include "src/readsim/read_simulator.h"
#include "src/util/rng.h"
#include "tests/temp_dir.h"

namespace pim::align {
namespace {

// Randomized read mix covering every outcome class: exact copies, mutated
// reads (stage two), reverse-complement strands of both, and random garbage
// (unaligned).
std::vector<std::vector<genome::Base>> make_read_mix(
    const genome::PackedSequence& reference, std::size_t count,
    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<genome::Base>> reads;
  reads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = 60 + rng.bounded(41);  // 60-100 bp
    std::vector<genome::Base> read;
    if (i % 5 == 4) {
      // Random garbage: overwhelmingly unaligned.
      for (std::size_t k = 0; k < len; ++k) {
        read.push_back(static_cast<genome::Base>(rng.bounded(4)));
      }
    } else {
      const std::size_t start = rng.bounded(reference.size() - len);
      read = reference.slice(start, start + len);
      if (i % 5 == 1 || i % 5 == 3) {
        // 1-2 substitutions: exercises the inexact stage.
        const std::size_t subs = 1 + rng.bounded(2);
        for (std::size_t s = 0; s < subs; ++s) {
          const std::size_t pos = rng.bounded(read.size());
          read[pos] = genome::complement(read[pos]);
        }
      }
      if (i % 5 >= 2) read = genome::reverse_complement(read);
    }
    reads.push_back(std::move(read));
  }
  return reads;
}

struct Fixture {
  genome::PackedSequence reference;
  index::FmIndex fm;
  std::vector<std::vector<genome::Base>> reads;
  ReadBatch batch;
  AlignerOptions options;

  explicit Fixture(std::size_t num_reads = 120, std::uint64_t seed = 21) {
    genome::SyntheticGenomeSpec spec;
    spec.length = 60000;
    spec.seed = 15;
    reference = genome::generate_reference(spec);
    fm = index::FmIndex::build(reference, {.bucket_width = 128});
    reads = make_read_mix(reference, num_reads, seed);
    batch = ReadBatch::from_reads(reads);
    options.inexact.max_diffs = 2;
  }
};

void expect_identical(const AlignmentResult& want, AlignmentStage got_stage,
                      std::span<const AlignmentHit> got_hits,
                      std::size_t read_index, const char* label) {
  EXPECT_EQ(got_stage, want.stage) << label << " read " << read_index;
  ASSERT_EQ(got_hits.size(), want.hits.size())
      << label << " read " << read_index;
  for (std::size_t h = 0; h < want.hits.size(); ++h) {
    EXPECT_EQ(got_hits[h].position, want.hits[h].position)
        << label << " read " << read_index << " hit " << h;
    EXPECT_EQ(got_hits[h].diffs, want.hits[h].diffs)
        << label << " read " << read_index << " hit " << h;
    EXPECT_EQ(got_hits[h].strand, want.hits[h].strand)
        << label << " read " << read_index << " hit " << h;
  }
}

TEST(ReadBatch, RoundTripsReads) {
  Fixture f;
  ASSERT_EQ(f.batch.size(), f.reads.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < f.reads.size(); ++i) {
    total += f.reads[i].size();
    EXPECT_EQ(f.batch.read_length(i), f.reads[i].size());
    EXPECT_EQ(f.batch.read(i).unpack(), f.reads[i]) << i;
    // Random access through the view matches too.
    const ReadView view = f.batch.read(i);
    for (std::size_t k = 0; k < f.reads[i].size(); k += 7) {
      EXPECT_EQ(view[k], f.reads[i][k]);
    }
  }
  EXPECT_EQ(f.batch.total_bases(), total);
  EXPECT_FALSE(f.batch.has_names());
  EXPECT_FALSE(f.batch.has_qualities());
}

TEST(ReadBatch, CarriesNamesAndQualities) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 20000;
  spec.seed = 4;
  const auto reference = genome::generate_reference(spec);
  readsim::ReadSimSpec rspec;
  rspec.read_length = 50;
  rspec.num_reads = 40;
  rspec.emit_qualities = true;
  rspec.seed = 6;
  const auto set = readsim::ReadSimulator(rspec).generate(reference);
  const auto records = readsim::to_fastq(set, "r");

  const auto batch = ReadBatch::from_fastq(records);
  ASSERT_EQ(batch.size(), records.size());
  EXPECT_TRUE(batch.has_names());
  EXPECT_TRUE(batch.has_qualities());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(batch.name(i), records[i].name) << i;
    EXPECT_EQ(batch.qualities(i), records[i].qualities) << i;
    EXPECT_EQ(batch.read(i).unpack(), records[i].sequence.unpack()) << i;
  }
}

TEST(ReadBatch, UnnamedReadsBeforeNamedOnesBackfillEmpty) {
  ReadBatchBuilder builder;
  builder.add(std::vector<genome::Base>{genome::Base::A, genome::Base::C});
  builder.add(std::vector<genome::Base>{genome::Base::G}, "named");
  const auto batch = builder.build();
  ASSERT_TRUE(batch.has_names());
  EXPECT_EQ(batch.name(0), "");
  EXPECT_EQ(batch.name(1), "named");
}

TEST(Engine, PimEngineBitIdenticalToSoftwareEngine) {
  Fixture f(60);  // PIM simulation pays per-op accounting; keep it modest.
  hw::TimingEnergyModel timing;
  hw::PimAlignerPlatform platform(f.fm, timing);
  // max_hits = 1 lets the forward strand fill the cap, so the reverse-
  // complement search is skipped: the search counters must show it.
  // max_hits = 3 cuts inside the located intervals of repeats.
  for (const std::size_t max_hits : {64u, 3u, 1u}) {
    SCOPED_TRACE("max_hits " + std::to_string(max_hits));
    AlignerOptions options = f.options;
    options.max_hits = max_hits;
    const SoftwareEngine software(f.fm, options);
    const hw::PimEngine pim_engine(platform, options);

    BatchResult sw, hw_result;
    software.align_batch(f.batch, sw);
    const auto report = pim_engine.run(f.batch, hw_result);

    ASSERT_EQ(hw_result.size(), sw.size());
    for (std::size_t i = 0; i < sw.size(); ++i) {
      expect_identical(sw.result(i), hw_result.stage(i), hw_result.hits(i),
                       i, "pim");
    }
    const EngineStats& want = sw.stats();
    EXPECT_EQ(report.stats.reads_total, want.reads_total);
    EXPECT_EQ(report.stats.reads_exact, want.reads_exact);
    EXPECT_EQ(report.stats.reads_inexact, want.reads_inexact);
    EXPECT_EQ(report.stats.reads_unaligned, want.reads_unaligned);
    EXPECT_EQ(report.stats.hits_total, want.hits_total);
    EXPECT_EQ(report.stats.exact_searches, want.exact_searches);
    EXPECT_EQ(report.stats.inexact_searches, want.inexact_searches);
    // The software backend verifies a one-row interval against the
    // reference; the PIM backend walks it to the end. Same count either way.
    EXPECT_EQ(report.stats.exact_verified, want.exact_verified);
    EXPECT_GT(want.exact_verified, 0u);
    if (max_hits == 1) {
      EXPECT_LT(want.exact_searches, 2 * want.reads_total);
    }
    EXPECT_GT(report.hardware.lfm_calls, 0u);
    EXPECT_GT(report.energy_pj, 0.0);
  }
}

// One 150-bp unit planted 100 times in a 40 kbp random text: copies 0-6 of
// every ten forward, 7-9 reverse-complemented, and every fourth copy with a
// substitution at unit offset 130. An exact read of unit[0, 100) hits 70
// forward and 30 reverse loci; one of unit[40, 140) hits 50 and 25; with a
// substitution, unit[40, 140) is 1 diff from 75 copies and 2 from 25, so
// stage two locates intervals of both diff counts.
struct RepeatFixture {
  static constexpr std::size_t kUnit = 150;
  static constexpr std::size_t kCopies = 100;
  static constexpr std::size_t kSlot = 400;
  genome::PackedSequence reference;
  index::FmIndex fm;
  std::vector<std::vector<genome::Base>> reads;

  RepeatFixture() {
    std::vector<genome::Base> text =
        genome::generate_uniform(kCopies * kSlot, 71).unpack();
    const std::vector<genome::Base> unit =
        genome::generate_uniform(kUnit, 73).unpack();
    util::Xoshiro256 rng(79);
    for (std::size_t c = 0; c < kCopies; ++c) {
      std::vector<genome::Base> copy = unit;
      if (c % 4 == 0) copy[130] = genome::complement(copy[130]);
      if (c % 10 >= 7) copy = genome::reverse_complement(copy);
      std::copy(copy.begin(), copy.end(),
                text.begin() + static_cast<std::ptrdiff_t>(
                                   c * kSlot + rng.bounded(kSlot - kUnit)));
    }
    reference = genome::PackedSequence(text);
    fm = index::FmIndex::build(reference, {.bucket_width = 128});

    const auto slice = [&](std::size_t begin) {
      return std::vector<genome::Base>(unit.begin() + begin,
                                       unit.begin() + begin + 100);
    };
    const auto substitute = [](std::vector<genome::Base> read,
                               std::initializer_list<std::size_t> at) {
      for (const std::size_t i : at) read[i] = genome::complement(read[i]);
      return read;
    };
    const std::vector<genome::Base> a = slice(0);
    const std::vector<genome::Base> b = slice(40);
    reads = {a,
             genome::reverse_complement(b),
             substitute(b, {10}),
             b,
             genome::reverse_complement(a),
             substitute(a, {10}),
             substitute(genome::reverse_complement(a), {30, 70}),
             substitute(b, {5, 50}),
             reference.slice(kSlot * 7 - 100, kSlot * 7)};
  }
};

const RepeatFixture& repeat_fixture() {
  static const RepeatFixture fixture;
  return fixture;
}

/// The max_hits cut as locating everything makes it: each strand's
/// intervals located whole and sorted, hits appended in position order
/// until max_hits. `located_rows` counts every located row.
AlignmentResult locate_all_then_cut(const index::FmIndex& fm,
                                    const AlignerOptions& options,
                                    const std::vector<genome::Base>& read,
                                    std::uint64_t& located_rows) {
  AlignmentResult result;
  auto& hits = result.hits;
  const auto full = [&] {
    return options.max_hits != 0 && hits.size() >= options.max_hits;
  };
  const auto add = [&](std::uint64_t pos, std::uint32_t diffs, Strand s) {
    if (!full()) hits.push_back(AlignmentHit{pos, diffs, s});
  };
  const std::vector<genome::Base> rc = genome::reverse_complement(read);
  const auto each_strand = [&](const auto& search) {
    search(read, Strand::kForward);
    if (options.try_reverse_complement && !full()) {
      search(rc, Strand::kReverseComplement);
    }
  };
  each_strand([&](const std::vector<genome::Base>& oriented, Strand s) {
    const ExactResult r = exact_search(fm, oriented);
    if (!r.found()) return;
    located_rows += r.interval.count();
    for (const auto pos : fm.locate_all(r.interval)) add(pos, 0, s);
  });
  if (!hits.empty()) {
    result.stage = AlignmentStage::kExact;
  } else if (options.inexact.max_diffs > 0) {
    each_strand([&](const std::vector<genome::Base>& oriented, Strand s) {
      std::map<std::uint64_t, std::uint32_t> by_position;
      for (const auto& hit :
           inexact_search(fm, oriented, options.inexact).hits) {
        located_rows += hit.interval.count();
        for (const auto pos : fm.locate_all(hit.interval)) {
          const auto [it, fresh] = by_position.emplace(pos, hit.diffs);
          if (!fresh) it->second = std::min(it->second, hit.diffs);
        }
      }
      for (const auto& [pos, diffs] : by_position) add(pos, diffs, s);
    });
    if (!hits.empty()) result.stage = AlignmentStage::kInexact;
  }
  std::sort(hits.begin(), hits.end(),
            [](const AlignmentHit& x, const AlignmentHit& y) {
              if (x.position != y.position) return x.position < y.position;
              return x.diffs < y.diffs;
            });
  return result;
}

// Reads from a repeat of 100 copies, cut at max_hits 0, 1, 3 and 64 with
// and without the reverse strand: both engines keep exactly the hits that
// locating every row, sorting and cutting keeps, and the platform still
// charges one SA read per row of every located interval.
TEST(Engine, RepeatCutKeepsTheHitsOfLocateAllSortCut) {
  const RepeatFixture& f = repeat_fixture();
  const ReadBatch batch = ReadBatch::from_reads(f.reads);
  hw::TimingEnergyModel timing;
  hw::PimAlignerPlatform platform(f.fm, timing);
  for (const std::size_t max_hits : {0u, 1u, 3u, 64u}) {
    for (const bool both_strands : {true, false}) {
      SCOPED_TRACE("max_hits " + std::to_string(max_hits) +
                   (both_strands ? " both strands" : " forward only"));
      AlignerOptions options;
      options.inexact.max_diffs = 2;
      options.max_hits = max_hits;
      options.try_reverse_complement = both_strands;
      BatchResult sw, hw_result;
      SoftwareEngine(f.fm, options).align_batch(batch, sw);
      const auto report = hw::PimEngine(platform, options).run(batch, hw_result);
      ASSERT_EQ(sw.size(), f.reads.size());
      ASSERT_EQ(hw_result.size(), f.reads.size());
      std::uint64_t located_rows = 0;
      std::size_t cut_reads = 0;
      for (std::size_t i = 0; i < f.reads.size(); ++i) {
        const std::uint64_t before = located_rows;
        const AlignmentResult want =
            locate_all_then_cut(f.fm, options, f.reads[i], located_rows);
        expect_identical(want, sw.stage(i), sw.hits(i), i, "software");
        expect_identical(want, hw_result.stage(i), hw_result.hits(i), i,
                         "pim");
        cut_reads += located_rows - before > want.hits.size();
      }
      EXPECT_EQ(report.hardware.sa_mem_reads, located_rows);
      if (max_hits != 0) {
        EXPECT_GT(cut_reads, 0U);
      }
    }
  }
}

// Which secondaries the cut keeps, byte for byte: three of the repeat's
// reads (exact on one strand, exact on both, one substitution) at
// max_hits 64 and 3 through one SamWriter.
TEST(Engine, RepeatCutSamGolden) {
  const RepeatFixture& f = repeat_fixture();
  std::ostringstream out;
  SamWriter writer(out, "repeat", f.reference);
  writer.write_header();
  for (const std::size_t max_hits : {64u, 3u}) {
    AlignerOptions options;
    options.inexact.max_diffs = 2;
    options.max_hits = max_hits;
    ReadBatchBuilder builder;
    for (std::size_t i = 0; i < 3; ++i) {
      builder.add(f.reads[i], "cut" + std::to_string(max_hits) + "_read" +
                                  std::to_string(i));
    }
    const ReadBatch batch = builder.build();
    BatchResult results;
    SoftwareEngine(f.fm, options).align_batch(batch, results);
    writer.write_batch(batch, results);
  }
  tests::expect_golden(out.str(), "repeat_cut.sam");
}

// An empty read has no placement. Without the guard the empty pattern's
// whole-interval "exact hit" reported every BWT row (up to max_hits), the
// sentinel row included. Neither engine may issue a search for it.
TEST(Engine, EmptyReadIsUnalignedWithoutSearchOnBothEngines) {
  Fixture f(4);
  hw::TimingEnergyModel timing;
  hw::PimAlignerPlatform platform(f.fm, timing);
  ReadBatchBuilder builder;
  builder.add(std::vector<genome::Base>{});
  const ReadBatch empty_read = builder.build();
  for (const std::size_t max_hits : {0u, 64u}) {
    SCOPED_TRACE("max_hits " + std::to_string(max_hits));
    AlignerOptions options = f.options;
    options.max_hits = max_hits;
    BatchResult sw, hw_result;
    SoftwareEngine(f.fm, options).align_batch(empty_read, sw);
    const auto report =
        hw::PimEngine(platform, options).run(empty_read, hw_result);
    for (const BatchResult* result : {&sw, &hw_result}) {
      ASSERT_EQ(result->size(), 1U);
      EXPECT_EQ(result->stage(0), AlignmentStage::kUnaligned);
      EXPECT_TRUE(result->hits(0).empty());
      EXPECT_EQ(result->stats().reads_unaligned, 1U);
      EXPECT_EQ(result->stats().exact_searches, 0U);
      EXPECT_EQ(result->stats().inexact_searches, 0U);
    }
    EXPECT_EQ(report.hardware.lfm_calls, 0U);
  }
}

TEST(Engine, ChunkedParallelDeterministicAcrossThreadAndChunkCounts) {
  Fixture f;
  const SoftwareEngine engine(f.fm, f.options);

  BatchResult serial;
  engine.align_batch(f.batch, serial);
  // Outcome classes all occur in the mix (the suite is vacuous otherwise).
  EXPECT_GT(serial.stats().reads_exact, 0u);
  EXPECT_GT(serial.stats().reads_inexact, 0u);
  EXPECT_GT(serial.stats().reads_unaligned, 0u);

  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    for (const std::size_t chunk : {0u, 1u, 7u, 64u, 1000u}) {
      BatchResult parallel;
      align_batch_parallel(engine, f.batch, parallel,
                           ParallelOptions{.num_threads = threads,
                                           .chunk_size = chunk});
      ASSERT_EQ(parallel.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        expect_identical(serial.result(i), parallel.stage(i),
                         parallel.hits(i), i, "parallel");
      }
      EXPECT_EQ(parallel.stats().reads_total, serial.stats().reads_total);
      EXPECT_EQ(parallel.stats().reads_exact, serial.stats().reads_exact);
      EXPECT_EQ(parallel.stats().reads_inexact, serial.stats().reads_inexact);
      EXPECT_EQ(parallel.stats().reads_unaligned,
                serial.stats().reads_unaligned);
      EXPECT_EQ(parallel.stats().hits_total, serial.stats().hits_total);
      EXPECT_EQ(parallel.stats().exact_searches,
                serial.stats().exact_searches);
      EXPECT_EQ(parallel.stats().inexact_searches,
                serial.stats().inexact_searches);
      EXPECT_EQ(parallel.stats().exact_verified,
                serial.stats().exact_verified);
    }
  }
}

TEST(Engine, SchedulerRunsNonThreadSafeEnginesSerially) {
  Fixture f(30);
  hw::TimingEnergyModel timing;
  hw::PimAlignerPlatform platform(f.fm, timing);
  const hw::PimEngine engine(platform, f.options);
  EXPECT_FALSE(engine.thread_safe());

  BatchResult serial, scheduled;
  engine.align_batch(f.batch, serial);
  align_batch_parallel(engine, f.batch, scheduled,
                       ParallelOptions{.num_threads = 8});
  ASSERT_EQ(scheduled.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial.result(i), scheduled.stage(i), scheduled.hits(i),
                     i, "pim-scheduled");
  }
}

TEST(Engine, StatsCarryStageSearchCountersAndWallTime) {
  Fixture f;
  const SoftwareEngine engine(f.fm, f.options);
  BatchResult result;
  engine.align_batch(f.batch, result);
  const auto& s = result.stats();
  // Both strands of stage one run for every read.
  EXPECT_EQ(s.exact_searches, 2 * s.reads_total);
  // Stage two runs (both strands) exactly for stage-one misses.
  EXPECT_EQ(s.inexact_searches,
            2 * (s.reads_inexact + s.reads_unaligned));
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < result.size(); ++i) hits += result.hits(i).size();
  EXPECT_EQ(s.hits_total, hits);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_GT(s.wall_ms, 0.0);
  EXPECT_GT(s.result_bytes, 0u);

  // merge() is associative accumulation.
  EngineStats merged;
  merged.merge(s);
  merged.merge(s);
  EXPECT_EQ(merged.reads_total, 2 * s.reads_total);
  EXPECT_EQ(merged.exact_searches, 2 * s.exact_searches);
}

TEST(Engine, BatchResultBestMatchesLegacyBest) {
  Fixture f;
  const SoftwareEngine engine(f.fm, f.options);
  BatchResult result;
  engine.align_batch(f.batch, result);
  for (std::size_t i = 0; i < f.reads.size(); ++i) {
    const auto want = result.result(i).best();
    const auto got = result.best(i);
    ASSERT_EQ(got.has_value(), want.has_value()) << i;
    if (want) {
      EXPECT_EQ(got->position, want->position) << i;
      EXPECT_EQ(got->diffs, want->diffs) << i;
      EXPECT_EQ(got->strand, want->strand) << i;
    }
  }
}

TEST(Engine, SeedExtendEngineAlignsLongReads) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 120000;
  spec.seed = 31;
  const auto reference = genome::generate_reference(spec);
  const auto fm = index::FmIndex::build(reference, {.bucket_width = 128});

  util::Xoshiro256 rng(77);
  ReadBatchBuilder builder;
  std::vector<std::uint64_t> origins;
  for (int i = 0; i < 10; ++i) {
    const std::size_t start = rng.bounded(reference.size() - 1000);
    auto read = reference.slice(start, start + 1000);
    for (int s = 0; s < 3; ++s) {  // ~0.3% divergence
      const std::size_t pos = rng.bounded(read.size());
      read[pos] = genome::complement(read[pos]);
    }
    if (i % 2 == 1) read = genome::reverse_complement(read);
    builder.add(read);
    origins.push_back(start);
  }
  const auto batch = builder.build();

  const SeedExtendEngine engine(fm);
  BatchResult result;
  engine.align_batch(batch, result);

  ASSERT_EQ(result.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(result.aligned(i)) << i;
    // The best-voted window must land near the true origin.
    bool near = false;
    for (const auto& hit : result.hits(i)) {
      const std::uint64_t lo =
          hit.position > 64 ? hit.position - 64 : 0;
      if (origins[i] >= lo && origins[i] <= hit.position + 64) near = true;
    }
    EXPECT_TRUE(near) << i;
  }
  EXPECT_EQ(result.stats().reads_inexact, batch.size());
}

TEST(Engine, SeedExtendEngineReportsHonestDiffs) {
  // S44 satellite: hits carry the kernel's edit count, so diffs (and the
  // exact/inexact stage split) reflect the alignment instead of reporting 0.
  genome::SyntheticGenomeSpec spec;
  spec.length = 80000;
  spec.seed = 19;
  const auto reference = genome::generate_reference(spec);
  const auto fm = index::FmIndex::build(reference, {.bucket_width = 128});

  ReadBatchBuilder builder;
  builder.add(reference.slice(5000, 5800));  // perfect: stage one, 0 diffs
  auto mutated = reference.slice(30000, 30800);
  for (const std::size_t pos : {100UL, 400UL, 700UL}) {
    mutated[pos] = genome::complement(mutated[pos]);
  }
  builder.add(mutated);  // 3 substitutions: stage two, 3 diffs
  const auto batch = builder.build();

  for (const ExtensionKernel kernel :
       {ExtensionKernel::kBandedSw, ExtensionKernel::kWfa}) {
    SeedExtendOptions opt;
    opt.kernel = kernel;
    const SeedExtendEngine engine(fm, opt);
    BatchResult result;
    engine.align_batch(batch, result);
    ASSERT_EQ(result.size(), 2U);

    EXPECT_EQ(result.stage(0), AlignmentStage::kExact) << to_string(kernel);
    ASSERT_TRUE(result.best(0).has_value()) << to_string(kernel);
    EXPECT_EQ(result.best(0)->position, 5000U) << to_string(kernel);
    EXPECT_EQ(result.best(0)->diffs, 0U) << to_string(kernel);

    EXPECT_EQ(result.stage(1), AlignmentStage::kInexact) << to_string(kernel);
    ASSERT_TRUE(result.best(1).has_value()) << to_string(kernel);
    EXPECT_EQ(result.best(1)->position, 30000U) << to_string(kernel);
    EXPECT_EQ(result.best(1)->diffs, 3U) << to_string(kernel);

    EXPECT_EQ(result.stats().reads_exact, 1U) << to_string(kernel);
    EXPECT_EQ(result.stats().reads_inexact, 1U) << to_string(kernel);
    EXPECT_EQ(result.stats().reads_unaligned, 0U) << to_string(kernel);
  }
}

TEST(Engine, SeedExtendBothStrandsSurvivesForwardDecoy) {
  // Regression (S44 satellite): a reverse-complement read whose FORWARD
  // orientation also seed-chains somewhere (a decoy) used to stop at the
  // forward placement and never try the true strand. Both orientations are
  // verified and best() keeps the fewest-diffs placement.
  util::Xoshiro256 rng(91);
  std::vector<genome::Base> bases(60000);
  for (auto& b : bases) b = static_cast<genome::Base>(rng.bounded(4));

  constexpr std::size_t kOrigin = 10000, kDecoy = 40000, kLen = 1000;
  const std::vector<genome::Base> seg(bases.begin() + kOrigin,
                                      bases.begin() + kOrigin + kLen);
  // The decoy is the read's forward-orientation sequence with one planted
  // mismatch per 40 bp — every other 20-bp seed window still matches
  // exactly, so the forward strand seed-chains convincingly (25 votes)
  // while the alignment carries ~28 edits.
  auto decoy = genome::reverse_complement(seg);
  for (std::size_t pos = 30; pos < kLen; pos += 40) {
    decoy[pos] = genome::complement(decoy[pos]);
  }
  std::copy(decoy.begin(), decoy.end(), bases.begin() + kDecoy);

  genome::PackedSequence reference;
  for (const auto b : bases) reference.push_back(b);
  const auto fm = index::FmIndex::build(reference, {.bucket_width = 128});

  // The read: reverse complement of the origin slice, 3 substitutions.
  auto read = genome::reverse_complement(seg);
  for (const std::size_t pos : {100UL, 500UL, 900UL}) {
    read[pos] = genome::complement(read[pos]);
  }
  ReadBatchBuilder builder;
  builder.add(read);
  const auto batch = builder.build();

  const SeedExtendEngine both(fm);
  BatchResult result;
  both.align_batch(batch, result);
  ASSERT_TRUE(result.aligned(0));
  const auto best = result.best(0);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->strand, Strand::kReverseComplement);
  EXPECT_EQ(best->position, kOrigin);
  EXPECT_EQ(best->diffs, 3U);
  // The decoy placement is still reported (just ranked below).
  bool saw_decoy = false;
  for (const auto& hit : result.hits(0)) {
    if (hit.strand == Strand::kForward) {
      EXPECT_NEAR(static_cast<double>(hit.position),
                  static_cast<double>(kDecoy), 8.0);
      EXPECT_GT(hit.diffs, 20U);
      saw_decoy = true;
    }
  }
  EXPECT_TRUE(saw_decoy);
}

TEST(Sharded, SeedExtendShardsBitIdenticalToUnsharded) {
  // The S44 seam through ShardedEngine: make_seed_extend_shards partitions
  // a long-read batch across engines with identical results — positions,
  // honest diffs, strands, and merged stats — for both kernels.
  genome::SyntheticGenomeSpec spec;
  spec.length = 120000;
  spec.seed = 31;
  const auto reference = genome::generate_reference(spec);
  const auto fm = index::FmIndex::build(reference, {.bucket_width = 128});

  util::Xoshiro256 rng(77);
  ReadBatchBuilder builder;
  for (int i = 0; i < 12; ++i) {
    const std::size_t start = rng.bounded(reference.size() - 1000);
    auto read = reference.slice(start, start + 1000);
    for (int s = 0; s < 3; ++s) {
      const std::size_t pos = rng.bounded(read.size());
      read[pos] = genome::complement(read[pos]);
    }
    if (i % 2 == 1) read = genome::reverse_complement(read);
    builder.add(read);
  }
  const auto batch = builder.build();

  for (const ExtensionKernel kernel :
       {ExtensionKernel::kBandedSw, ExtensionKernel::kWfa}) {
    SeedExtendOptions opt;
    opt.kernel = kernel;
    const SeedExtendEngine unsharded(fm, opt);
    BatchResult want;
    unsharded.align_batch(batch, want);

    for (const std::size_t shards : {1u, 3u}) {
      const ShardedEngine engine(
          make_seed_extend_shards(fm, shards, opt));
      BatchResult got;
      engine.align_batch(batch, got);
      ASSERT_EQ(got.size(), want.size()) << to_string(kernel);
      for (std::size_t i = 0; i < want.size(); ++i) {
        expect_identical(want.result(i), got.stage(i), got.hits(i), i,
                         to_string(kernel));
      }
      EXPECT_EQ(got.stats().reads_exact, want.stats().reads_exact);
      EXPECT_EQ(got.stats().reads_inexact, want.stats().reads_inexact);
      EXPECT_EQ(got.stats().hits_total, want.stats().hits_total);
      EXPECT_EQ(got.stats().inexact_searches, want.stats().inexact_searches);
    }
  }
}

std::unique_ptr<ShardedEngine> make_software_sharded(const Fixture& f,
                                                     std::size_t shards) {
  std::vector<std::unique_ptr<AlignmentEngine>> engines;
  for (std::size_t s = 0; s < shards; ++s) {
    engines.push_back(std::make_unique<SoftwareEngine>(f.fm, f.options));
  }
  return std::make_unique<ShardedEngine>(std::move(engines));
}

TEST(Sharded, BitIdenticalToUnshardedAcrossShardCounts) {
  Fixture f;
  const SoftwareEngine unsharded(f.fm, f.options);
  BatchResult want;
  unsharded.align_batch(f.batch, want);

  for (const std::size_t shards : {1u, 2u, 4u}) {
    const auto engine = make_software_sharded(f, shards);
    BatchResult got;
    engine->align_batch(f.batch, got);

    ASSERT_EQ(got.size(), want.size()) << shards << " shards";
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_identical(want.result(i), got.stage(i), got.hits(i), i,
                       "sharded");
    }
    // Merged stats equal the unsharded counts (associative merge).
    EXPECT_EQ(got.stats().reads_total, want.stats().reads_total);
    EXPECT_EQ(got.stats().hits_total, want.stats().hits_total);
    EXPECT_EQ(got.stats().reads_exact, want.stats().reads_exact);
    EXPECT_EQ(got.stats().reads_inexact, want.stats().reads_inexact);
    EXPECT_EQ(got.stats().reads_unaligned, want.stats().reads_unaligned);
    EXPECT_EQ(got.stats().exact_searches, want.stats().exact_searches);
    EXPECT_EQ(got.stats().inexact_searches, want.stats().inexact_searches);
    EXPECT_EQ(got.stats().exact_verified, want.stats().exact_verified);

    // Per-chip breakdown: every read and hit is attributed to exactly one
    // shard, each shard holding exactly its partition() range.
    const auto& per_shard = engine->shard_stats();
    ASSERT_EQ(per_shard.size(), shards);
    const auto bounds = engine->partition(f.batch.size());
    std::uint64_t reads = 0, hits = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(per_shard[s].shard, s);
      EXPECT_GE(per_shard[s].wall_ms, 0.0);
      reads += per_shard[s].reads;
      hits += per_shard[s].hits;
      EXPECT_EQ(per_shard[s].reads, bounds[s + 1] - bounds[s]);
    }
    EXPECT_EQ(reads, want.stats().reads_total);
    EXPECT_EQ(hits, want.stats().hits_total);
  }
}

TEST(Sharded, PimChipFleetBitIdenticalToSoftware) {
  Fixture f(48);  // PIM simulation pays per-op accounting; keep it modest.
  const SoftwareEngine software(f.fm, f.options);
  BatchResult want;
  software.align_batch(f.batch, want);

  hw::TimingEnergyModel timing;
  hw::PimChipFleet fleet(f.fm, timing, 2, f.options);
  BatchResult got;
  fleet.engine().align_batch(f.batch, got);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_identical(want.result(i), got.stage(i), got.hits(i), i,
                     "pim-fleet");
  }
  EXPECT_EQ(got.stats().reads_total, want.stats().reads_total);
  EXPECT_EQ(got.stats().hits_total, want.stats().hits_total);

  // Each chip did hardware work for exactly its share, and the measured
  // loads expose the per-chip LFM tallies for the accel models.
  const auto loads = accel::measured_loads(fleet);
  ASSERT_EQ(loads.size(), 2u);
  std::uint64_t reads = 0;
  for (const auto& load : loads) {
    EXPECT_GT(load.reads, 0u);
    EXPECT_GT(load.lfm_calls, 0u);
    reads += load.reads;
  }
  EXPECT_EQ(reads, want.stats().reads_total);
}

TEST(Sharded, MeasuredLoadFeedsChipAndContentionModels) {
  accel::MeasuredChipLoad load;
  load.reads = 500;
  load.lfm_calls = 150000;  // 300 LFM per read
  EXPECT_DOUBLE_EQ(load.lfm_per_read(), 300.0);

  const auto sim = accel::chip_sim_from_measured(load);
  EXPECT_EQ(sim.reads_to_complete, 500u);
  EXPECT_EQ(sim.lfm_per_read, 300u);

  const auto model = accel::chip_model_from_measured(load, 100);
  EXPECT_DOUBLE_EQ(model.lfm_stage_mix, 1.5);

  // Unmeasured (software shard): consumers keep their assumed demand.
  accel::MeasuredChipLoad soft;
  soft.reads = 500;
  const accel::ChipSimConfig base;
  EXPECT_EQ(accel::chip_sim_from_measured(soft).lfm_per_read,
            base.lfm_per_read);
  EXPECT_DOUBLE_EQ(accel::chip_model_from_measured(soft, 100).lfm_stage_mix,
                   accel::ChipModelConfig{}.lfm_stage_mix);
}

TEST(Sharded, MoreShardsThanReadsAndEmptyBatchAreHarmless) {
  Fixture f(3);
  const SoftwareEngine unsharded(f.fm, f.options);
  BatchResult want;
  unsharded.align_batch(f.batch, want);

  const auto engine = make_software_sharded(f, 8);
  BatchResult got;
  engine->align_batch(f.batch, got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_identical(want.result(i), got.stage(i), got.hits(i), i,
                     "overshard");
  }
  // Idle shards report zero load, not garbage.
  std::uint64_t reads = 0;
  for (const auto& s : engine->shard_stats()) reads += s.reads;
  EXPECT_EQ(reads, 3u);

  const ReadBatch empty;
  engine->align_batch(empty, got);
  EXPECT_EQ(got.size(), 0u);
  EXPECT_EQ(got.stats().reads_total, 0u);
}

TEST(Sharded, ShardRangePartitionIsBalancedAndComplete) {
  Fixture f(1);
  const SoftwareEngine software(f.fm, f.options);
  for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
    // Uniform weights (the default) split reads as evenly as possible.
    const ShardedEngine engine(
        std::vector<const AlignmentEngine*>(shards, &software));
    for (const std::size_t reads : {0u, 1u, 7u, 64u, 1001u}) {
      const auto bounds = engine.partition(reads);
      ASSERT_EQ(bounds.size(), shards + 1);
      std::size_t expected_begin = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t lo = bounds[s];
        const std::size_t hi = bounds[s + 1];
        EXPECT_EQ(lo, expected_begin);  // contiguous, in order
        EXPECT_LE(hi - lo, reads / shards + 1);
        EXPECT_GE(hi - lo, reads / shards);
        expected_begin = hi;
      }
      EXPECT_EQ(expected_begin, reads);  // complete cover
    }
  }
}

TEST(Sharded, RejectsEmptyAndNullShards) {
  EXPECT_THROW(
      ShardedEngine(std::vector<std::unique_ptr<AlignmentEngine>>{}),
      std::invalid_argument);
  EXPECT_THROW(
      ShardedEngine(std::vector<const AlignmentEngine*>{nullptr}),
      std::invalid_argument);
  Fixture f(1);
  hw::TimingEnergyModel timing;
  EXPECT_THROW(hw::PimChipFleet(f.fm, timing, 0), std::invalid_argument);
}

TEST(Engine, EmptyBatchIsHarmless) {
  Fixture f(1);
  const SoftwareEngine engine(f.fm, f.options);
  const ReadBatch empty;
  BatchResult result;
  engine.align_batch(empty, result);
  EXPECT_EQ(result.size(), 0u);
  align_batch_parallel(engine, empty, result, ParallelOptions{});
  EXPECT_EQ(result.size(), 0u);
  EXPECT_EQ(result.stats().reads_total, 0u);
}

TEST(Engine, AlignBatchChunkedDeliversInOrderAndMatchesAlignBatch) {
  Fixture f;
  const SoftwareEngine engine(f.fm, f.options);
  BatchResult whole;
  engine.align_batch(f.batch, whole);

  BatchResult stitched;
  std::size_t next_begin = 0;
  const auto stats = engine.align_batch_chunked(
      f.batch,
      [&](const BatchResultChunk& chunk) {
        EXPECT_EQ(chunk.begin, next_begin);
        EXPECT_EQ(chunk.base_index, chunk.begin);
        EXPECT_EQ(chunk.result->size(), chunk.size());
        stitched.append(*chunk.result);
        next_begin = chunk.end;
      },
      ParallelOptions{.num_threads = 1, .chunk_size = 13});
  EXPECT_EQ(next_begin, f.batch.size());
  ASSERT_EQ(stitched.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    expect_identical(whole.result(i), stitched.stage(i), stitched.hits(i), i,
                     "chunked");
  }
  EXPECT_EQ(stats.reads_total, whole.stats().reads_total);
  EXPECT_EQ(stats.hits_total, whole.stats().hits_total);
  EXPECT_EQ(stats.batches, 1u);
}

TEST(Sharded, WeightedPartitionFollowsWeights) {
  Fixture f(1);
  const SoftwareEngine engine(f.fm, f.options);
  const std::vector<const AlignmentEngine*> shards{&engine, &engine, &engine,
                                                   &engine};
  ShardedEngine sharded(shards);

  // Uniform default: complete, contiguous, balanced.
  auto bounds = sharded.partition(1000);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 1000u);
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    EXPECT_EQ(bounds[s + 1] - bounds[s], 250u);
  }

  // Skewed weights move the boundaries proportionally.
  sharded.set_shard_weights({0.5, 0.25, 0.125, 0.125});
  bounds = sharded.partition(1000);
  EXPECT_EQ(bounds[1], 500u);
  EXPECT_EQ(bounds[2], 750u);
  EXPECT_EQ(bounds[3], 875u);
  EXPECT_EQ(bounds[4], 1000u);

  // Un-normalized input is accepted and normalized.
  sharded.set_shard_weights({4.0, 2.0, 1.0, 1.0});
  EXPECT_EQ(sharded.partition(1000), bounds);
  const auto& weights = sharded.shard_weights();
  double sum = 0.0;
  for (const double w : weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(weights[0], 0.5, 1e-12);

  // Degenerate cases stay monotone and complete.
  const auto empty_bounds = sharded.partition(0);
  EXPECT_EQ(empty_bounds, (std::vector<std::size_t>{0, 0, 0, 0, 0}));
  const auto one = sharded.partition(1);
  EXPECT_EQ(one.back(), 1u);
  for (std::size_t s = 0; s + 1 < one.size(); ++s) {
    EXPECT_LE(one[s], one[s + 1]);
  }

  // Invalid weights are rejected.
  EXPECT_THROW(sharded.set_shard_weights({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(sharded.set_shard_weights({1.0, 1.0, 1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(sharded.set_shard_weights({1.0, 1.0, 1.0, -1.0}),
               std::invalid_argument);
}

TEST(Sharded, RebalanceKeepsResultsIdenticalAcrossBatches) {
  Fixture f(150);
  const SoftwareEngine reference_engine(f.fm, f.options);
  BatchResult want;
  reference_engine.align_batch(f.batch, want);

  std::vector<std::unique_ptr<AlignmentEngine>> shards;
  for (int s = 0; s < 3; ++s) {
    shards.push_back(std::make_unique<SoftwareEngine>(f.fm, f.options));
  }
  ShardedOptions options;
  options.rebalance = true;
  const ShardedEngine sharded(std::move(shards), options);

  // Boundaries move between batches; results must not.
  for (int round = 0; round < 3; ++round) {
    BatchResult got;
    sharded.align_batch(f.batch, got);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_identical(want.result(i), got.stage(i), got.hits(i), i,
                       "rebalanced");
    }
    double sum = 0.0;
    for (const double w : sharded.shard_weights()) {
      EXPECT_GT(w, 0.0);
      sum += w;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Sharded, RebalancedShardWeightsMath) {
  // Twice the throughput -> target twice the weight; the move is blended
  // halfway from the current weights: 1/2 + (2/3 - 1/2) / 2 = 7/12.
  std::vector<ShardStats> stats(2);
  const auto measure = [&](std::size_t shard, std::uint64_t reads,
                           double wall_ms) {
    stats[shard].shard = shard;
    stats[shard].reads = reads;
    stats[shard].wall_ms = wall_ms;
  };
  measure(0, 200, 10.0);
  measure(1, 100, 10.0);
  auto weights = rebalanced_weights({0.5, 0.5}, stats);
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_NEAR(weights[0], 7.0 / 12.0, 1e-12);
  EXPECT_NEAR(weights[1], 5.0 / 12.0, 1e-12);

  // An unmeasured shard is targeted at the mean measured throughput.
  stats[1].reads = 0;
  weights = rebalanced_weights({0.5, 0.5}, stats);
  EXPECT_NEAR(weights[0], 0.5, 1e-12);
  EXPECT_NEAR(weights[1], 0.5, 1e-12);

  // Nothing measured -> the current weights, unchanged.
  stats[0].reads = 0;
  weights = rebalanced_weights({0.75, 0.25}, stats);
  EXPECT_NEAR(weights[0], 0.75, 1e-12);
  EXPECT_NEAR(weights[1], 0.25, 1e-12);
  EXPECT_TRUE(rebalanced_weights({}, {}).empty());

  // A collapsing shard keeps a floor of 10% of a uniform share.
  measure(0, 1000000, 1.0);
  measure(1, 1, 1000.0);
  weights = rebalanced_weights({0.999, 0.001}, stats);
  EXPECT_NEAR(weights[1], 0.05 / (0.9995 + 0.05), 1e-6);
  EXPECT_NEAR(weights[0] + weights[1], 1.0, 1e-12);
}

TEST(Engine, MergeCoversEveryStatsField) {
  // Size gate (S40 satellite): EngineStats is 13 8-byte fields. Adding a
  // field without teaching merge() — the historical failure mode: counters
  // added after S37 were silently dropped on every merge path — changes the
  // size and fails this assert, forcing merge(), this test, and the
  // accounting paths to move together.
  static_assert(sizeof(EngineStats) == 13 * sizeof(std::uint64_t),
                "EngineStats changed shape: update EngineStats::merge() and "
                "the per-field checks below in the same change");

  EngineStats a;
  a.reads_total = 1;
  a.reads_exact = 2;
  a.reads_inexact = 3;
  a.reads_unaligned = 4;
  a.hits_total = 5;
  a.exact_searches = 6;
  a.inexact_searches = 7;
  a.exact_verified = 13;
  a.batches = 8;
  a.wall_ms = 9.5;
  a.result_bytes = 10;
  a.chunks = 11;
  a.stall_ms = 12.5;

  EngineStats b;
  b.reads_total = 100;
  b.reads_exact = 200;
  b.reads_inexact = 300;
  b.reads_unaligned = 400;
  b.hits_total = 500;
  b.exact_searches = 600;
  b.inexact_searches = 700;
  b.exact_verified = 1300;
  b.batches = 800;
  b.wall_ms = 900.25;
  b.result_bytes = 1000;
  b.chunks = 1100;
  b.stall_ms = 1200.25;

  a.merge(b);
  EXPECT_EQ(a.reads_total, 101u);
  EXPECT_EQ(a.reads_exact, 202u);
  EXPECT_EQ(a.reads_inexact, 303u);
  EXPECT_EQ(a.reads_unaligned, 404u);
  EXPECT_EQ(a.hits_total, 505u);
  EXPECT_EQ(a.exact_searches, 606u);
  EXPECT_EQ(a.inexact_searches, 707u);
  EXPECT_EQ(a.exact_verified, 1313u);
  EXPECT_EQ(a.batches, 808u);
  EXPECT_DOUBLE_EQ(a.wall_ms, 909.75);
  EXPECT_EQ(a.result_bytes, 1010u);
  EXPECT_EQ(a.chunks, 1111u);
  EXPECT_DOUBLE_EQ(a.stall_ms, 1212.75);
}

TEST(Engine, ChunkSeamCountsChunksAndStall) {
  Fixture f(80);
  const SoftwareEngine engine(f.fm, f.options);

  // Inline (one thread): one chunk per chunk_size slice.
  std::size_t delivered = 0;
  const EngineStats serial = engine.align_batch_chunked(
      f.batch, [&](const BatchResultChunk&) { ++delivered; },
      ParallelOptions{.num_threads = 1, .chunk_size = 16});
  EXPECT_EQ(serial.chunks, delivered);
  EXPECT_EQ(serial.chunks, (f.batch.size() + 15) / 16);

  // Worker pool: same chunk count through the in-order drain, and the
  // materializing front-end must not drop the seam counters.
  delivered = 0;
  const EngineStats parallel = engine.align_batch_chunked(
      f.batch, [&](const BatchResultChunk&) { ++delivered; },
      ParallelOptions{.num_threads = 4, .chunk_size = 16});
  EXPECT_EQ(parallel.chunks, delivered);
  EXPECT_GE(parallel.stall_ms, 0.0);

  BatchResult out;
  align_batch_parallel(engine, f.batch, out,
                       ParallelOptions{.num_threads = 4, .chunk_size = 16});
  EXPECT_EQ(out.stats().chunks, (f.batch.size() + 15) / 16);
}

TEST(Sharded, ShardStatsDescribeOnlyTheLastCall) {
  // Satellite (S40): the per-shard breakdown resets at the entry of every
  // align_batch*/align_range call — a reused engine must never report a
  // previous batch's load.
  Fixture f(40);
  const auto engine = make_software_sharded(f, 2);

  BatchResult first;
  engine->align_batch(f.batch, first);
  std::uint64_t reads = 0;
  for (const auto& s : engine->shard_stats()) reads += s.reads;
  ASSERT_EQ(reads, f.batch.size());

  // Smaller follow-up batch on the same engine: counts must not accumulate.
  const std::vector<std::vector<genome::Base>> subset(f.reads.begin(),
                                                      f.reads.begin() + 10);
  const ReadBatch small = ReadBatch::from_reads(subset);
  BatchResult second;
  engine->align_batch(small, second);
  reads = 0;
  for (const auto& s : engine->shard_stats()) reads += s.reads;
  EXPECT_EQ(reads, small.size());

  // Same contract through the streaming chunk seam.
  const EngineStats chunked =
      engine->align_batch_chunked(f.batch, [](const BatchResultChunk&) {});
  reads = 0;
  for (const auto& s : engine->shard_stats()) reads += s.reads;
  EXPECT_EQ(reads, f.batch.size());
  EXPECT_EQ(chunked.reads_total, f.batch.size());
  EXPECT_GT(chunked.chunks, 0u);
}

/// Software engine that throws when asked to align one chosen read.
class FailingEngine final : public AlignmentEngine {
 public:
  FailingEngine(const Fixture& f, std::size_t fail_read)
      : inner_(f.fm, f.options), fail_read_(fail_read) {}

  std::string_view name() const override { return "failing"; }
  bool thread_safe() const override { return true; }
  void align_range(const ReadBatch& batch, std::size_t begin, std::size_t end,
                   BatchResult& out) const override {
    if (begin <= fail_read_ && fail_read_ < end) {
      throw std::runtime_error("injected engine fault");
    }
    inner_.align_range(batch, begin, end, out);
  }

 private:
  SoftwareEngine inner_;
  std::size_t fail_read_;
};

TEST(Scheduler, EngineAndSinkErrorsPropagateInOrder) {
  Fixture f(60);
  constexpr std::size_t kFailRead = 27;  // chunk [24, 32) at chunk size 8
  const FailingEngine failing(f, kFailRead);

  // Every delivered chunk lies wholly before the failing read: nothing at
  // or after the failing chunk reaches the sink, and the call returns.
  const auto run = [&](const AlignmentEngine& engine,
                       const ParallelOptions& options) {
    std::vector<std::size_t> ends;
    EXPECT_THROW(engine.align_batch_chunked(
                     f.batch,
                     [&](const BatchResultChunk& chunk) {
                       ends.push_back(chunk.end);
                     },
                     options),
                 std::runtime_error);
    for (const std::size_t end : ends) EXPECT_LE(end, kFailRead);
    return ends;
  };

  // Inline: exactly the three chunks before the failing one arrive.
  EXPECT_EQ(run(failing, {.num_threads = 1, .chunk_size = 8}),
            (std::vector<std::size_t>{8, 16, 24}));
  // Worker pool: a prefix of those, in order.
  const auto pooled = run(failing, {.num_threads = 4, .chunk_size = 8});
  EXPECT_TRUE(std::is_sorted(pooled.begin(), pooled.end()));

  // Shard 1 of 3 ([20, 40) of 60 reads) throws: shard 2 is never delivered.
  const SoftwareEngine software(f.fm, f.options);
  const ShardedEngine sharded(
      std::vector<const AlignmentEngine*>{&software, &failing, &software});
  ASSERT_EQ(sharded.partition(f.batch.size()),
            (std::vector<std::size_t>{0, 20, 40, 60}));
  const auto sharded_ends = run(sharded, {});
  EXPECT_LE(sharded_ends.size(), 1u);

  // A throwing sink on the sharded path: shard 0 is delivered, shard 1's
  // delivery throws, shard 2 never reaches the sink.
  const ShardedEngine healthy(
      std::vector<const AlignmentEngine*>{&software, &software, &software});
  std::size_t calls = 0;
  EXPECT_THROW(healthy.align_batch_chunked(
                   f.batch,
                   [&](const BatchResultChunk& chunk) {
                     ++calls;
                     if (chunk.begin == 20) {
                       throw std::runtime_error("injected sink fault");
                     }
                   }),
               std::runtime_error);
  EXPECT_EQ(calls, 2u);

  // The same through the worker pool: chunk [24, 32) is the last one seen.
  calls = 0;
  std::size_t last_begin = 0;
  EXPECT_THROW(software.align_batch_chunked(
                   f.batch,
                   [&](const BatchResultChunk& chunk) {
                     ++calls;
                     last_begin = chunk.begin;
                     if (chunk.begin == 24) {
                       throw std::runtime_error("injected sink fault");
                     }
                   },
                   ParallelOptions{.num_threads = 4, .chunk_size = 8}),
               std::runtime_error);
  EXPECT_EQ(calls, 4u);
  EXPECT_EQ(last_begin, 24u);

  // The engines stay usable after a failed run.
  std::size_t reads = 0;
  healthy.align_batch_chunked(f.batch, [&](const BatchResultChunk& chunk) {
    reads += chunk.size();
  });
  EXPECT_EQ(reads, f.batch.size());
}

}  // namespace
}  // namespace pim::align
