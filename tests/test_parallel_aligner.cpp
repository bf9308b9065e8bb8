#include "src/align/parallel_aligner.h"

#include <gtest/gtest.h>

#include "src/genome/synthetic_genome.h"
#include "src/readsim/read_simulator.h"

namespace pim::align {
namespace {

struct Fixture {
  genome::PackedSequence reference;
  index::FmIndex fm;
  std::vector<std::vector<genome::Base>> reads;
  ReadBatch batch;

  Fixture() {
    genome::SyntheticGenomeSpec spec;
    spec.length = 50000;
    spec.seed = 8;
    reference = genome::generate_reference(spec);
    fm = index::FmIndex::build(reference, {.bucket_width = 128});
    readsim::ReadSimSpec rspec;
    rspec.read_length = 80;
    rspec.num_reads = 200;
    rspec.seed = 9;
    const auto set = readsim::ReadSimulator(rspec).generate(reference);
    for (const auto& r : set.reads) reads.push_back(r.bases);
    batch = ReadBatch::from_reads(reads);
  }
};

BatchResult align_parallel(const Fixture& f, const ReadBatch& batch,
                           std::size_t num_threads,
                           const AlignerOptions& options = {}) {
  BatchResult out;
  align_batch_parallel(SoftwareEngine(f.fm, options), batch, out,
                       ParallelOptions{.num_threads = num_threads});
  return out;
}

TEST(ParallelAligner, ResultsIdenticalToSerial) {
  Fixture f;
  AlignerOptions opt;
  opt.inexact.max_diffs = 2;
  BatchResult serial;
  SoftwareEngine(f.fm, opt).align_batch(f.batch, serial);
  const BatchResult parallel = align_parallel(f, f.batch, 4, opt);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel.stage(i), serial.stage(i)) << i;
    ASSERT_EQ(parallel.hits(i).size(), serial.hits(i).size()) << i;
    for (std::size_t h = 0; h < serial.hits(i).size(); ++h) {
      EXPECT_EQ(parallel.hits(i)[h].position, serial.hits(i)[h].position);
      EXPECT_EQ(parallel.hits(i)[h].diffs, serial.hits(i)[h].diffs);
      EXPECT_EQ(parallel.hits(i)[h].strand, serial.hits(i)[h].strand);
    }
  }
  EXPECT_EQ(parallel.stats().reads_total, serial.stats().reads_total);
  EXPECT_EQ(parallel.stats().reads_exact, serial.stats().reads_exact);
  EXPECT_EQ(parallel.stats().reads_inexact, serial.stats().reads_inexact);
  EXPECT_EQ(parallel.stats().reads_unaligned, serial.stats().reads_unaligned);
}

TEST(ParallelAligner, SingleThreadWorks) {
  Fixture f;
  EXPECT_EQ(align_parallel(f, f.batch, 1).size(), f.reads.size());
}

TEST(ParallelAligner, MoreThreadsThanReads) {
  Fixture f;
  const ReadBatch two = ReadBatch::from_reads(
      {f.reads.begin(), f.reads.begin() + 2});
  EXPECT_EQ(align_parallel(f, two, 16).size(), 2U);
}

TEST(ParallelAligner, EmptyBatch) {
  Fixture f;
  const BatchResult results = align_parallel(f, ReadBatch{}, 4);
  EXPECT_EQ(results.size(), 0U);
  EXPECT_EQ(results.stats().reads_total, 0U);
}

TEST(ParallelAligner, DefaultThreadCount) {
  Fixture f;
  EXPECT_EQ(align_parallel(f, f.batch, 0).size(), f.reads.size());
}

}  // namespace
}  // namespace pim::align
