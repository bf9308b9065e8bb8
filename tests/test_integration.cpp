// End-to-end integration: synthetic genome -> ART-like reads -> two-stage
// alignment on BOTH the software FM-index path and the PIM hardware path,
// checking outcome equality, ground-truth recovery, and hardware accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/align/engine.h"
#include "src/genome/synthetic_genome.h"
#include "src/pim/pim_engine.h"
#include "src/readsim/read_simulator.h"

namespace {

using pim::genome::Base;

struct Pipeline {
  pim::genome::PackedSequence reference;
  pim::index::FmIndex fm;
  pim::hw::TimingEnergyModel timing;
  std::unique_ptr<pim::hw::PimAlignerPlatform> platform;
  pim::align::ReadBatch batch;
  std::vector<pim::readsim::SimulatedRead> truth;

  Pipeline(std::size_t genome_len, std::size_t num_reads,
           std::uint32_t read_len, std::uint64_t seed) {
    pim::genome::SyntheticGenomeSpec gspec;
    gspec.length = genome_len;
    gspec.seed = seed;
    reference = pim::genome::generate_reference(gspec);
    fm = pim::index::FmIndex::build(reference, {.bucket_width = 128});
    platform = std::make_unique<pim::hw::PimAlignerPlatform>(fm, timing);

    pim::readsim::ReadSimSpec rspec;
    rspec.read_length = read_len;
    rspec.num_reads = num_reads;
    rspec.population_variation_rate = 0.001;
    rspec.sequencing_error_rate = 0.002;
    rspec.seed = seed + 1;
    const auto set = pim::readsim::ReadSimulator(rspec).generate(reference);
    pim::align::ReadBatchBuilder builder;
    for (const auto& r : set.reads) {
      builder.add(r.bases);
      truth.push_back(r);
    }
    batch = builder.build();
  }
};

TEST(Integration, SoftwareAndHardwarePathsAgreePerRead) {
  Pipeline p(40000, 40, 64, 101);
  pim::align::AlignerOptions options;
  options.inexact.max_diffs = 2;
  const pim::align::SoftwareEngine software(p.fm, options);
  const pim::hw::PimEngine hardware(*p.platform, options);
  pim::align::BatchResult sw, hw_result;
  software.align_batch(p.batch, sw);
  hardware.align_batch(p.batch, hw_result);

  for (std::size_t i = 0; i < p.batch.size(); ++i) {
    ASSERT_EQ(hw_result.stage(i), sw.stage(i)) << "read " << i;
    const auto want = sw.hits(i);
    const auto got = hw_result.hits(i);
    ASSERT_EQ(got.size(), want.size()) << "read " << i;
    for (std::size_t h = 0; h < want.size(); ++h) {
      EXPECT_EQ(got[h].position, want[h].position);
      EXPECT_EQ(got[h].diffs, want[h].diffs);
      EXPECT_EQ(got[h].strand, want[h].strand);
    }
  }
}

TEST(Integration, GroundTruthOriginRecovered) {
  Pipeline p(60000, 60, 80, 202);
  pim::align::AlignerOptions options;
  options.inexact.max_diffs = 2;
  options.max_hits = 0;  // unlimited, so the origin cannot be capped away
  pim::align::BatchResult results;
  pim::align::SoftwareEngine(p.fm, options).align_batch(p.batch, results);
  std::size_t recovered = 0, aligned = 0;
  for (std::size_t i = 0; i < p.batch.size(); ++i) {
    if (!results.aligned(i)) continue;
    ++aligned;
    for (const auto& hit : results.hits(i)) {
      if (hit.position == p.truth[i].origin) {
        ++recovered;
        break;
      }
    }
  }
  ASSERT_GT(aligned, p.batch.size() * 8 / 10);
  // Nearly every aligned read reports its true origin among its hits.
  EXPECT_GE(recovered, aligned * 9 / 10);
}

TEST(Integration, StageMixMatchesPaperExpectation) {
  Pipeline p(60000, 120, 100, 303);
  pim::align::AlignerOptions options;
  options.inexact.max_diffs = 2;
  const pim::hw::PimEngine engine(*p.platform, options);
  pim::align::BatchResult results;
  const auto report = engine.run(p.batch, results);
  EXPECT_EQ(report.stats.reads_total, p.batch.size());
  // ~70% exact at the paper's error rates (loose bounds for 120 reads).
  EXPECT_GT(report.stats.exact_fraction(), 0.55);
  EXPECT_LT(report.stats.exact_fraction(), 0.92);
  // Hardware accounting is live.
  EXPECT_GT(report.hardware.lfm_calls, 0U);
  EXPECT_GT(report.busy_ns, 0.0);
  EXPECT_GT(report.energy_pj, 0.0);
}

TEST(Integration, EnergyScalesWithWork) {
  Pipeline p(30000, 0, 50, 404);
  pim::align::AlignerOptions options;
  options.inexact.max_diffs = 0;
  const pim::hw::PimEngine engine(*p.platform, options);

  std::vector<std::vector<Base>> small_batch, big_batch;
  for (int i = 0; i < 4; ++i) {
    small_batch.push_back(
        p.reference.slice(100 + 97 * static_cast<std::size_t>(i),
                          150 + 97 * static_cast<std::size_t>(i)));
  }
  big_batch = small_batch;
  for (int rep = 0; rep < 3; ++rep) {
    big_batch.insert(big_batch.end(), small_batch.begin(), small_batch.end());
  }
  pim::align::BatchResult results;
  const auto small_report = engine.run(
      pim::align::ReadBatch::from_reads(small_batch), results);
  const auto big_report =
      engine.run(pim::align::ReadBatch::from_reads(big_batch), results);
  EXPECT_NEAR(big_report.energy_pj / small_report.energy_pj, 4.0, 0.2);
}

}  // namespace
