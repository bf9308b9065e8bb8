#include "src/varcall/snv_caller.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/align/engine.h"
#include "src/genome/synthetic_genome.h"
#include "src/readsim/read_simulator.h"
#include "src/util/rng.h"

namespace pim::varcall {
namespace {

using genome::Base;
using genome::PackedSequence;

// --- Pileup -------------------------------------------------------------------

TEST(Pileup, AllMatchRead) {
  Pileup pileup(10);
  AlignedRead read;
  read.position = 2;
  read.bases = genome::encode("ACGT");
  pileup.add(read);
  EXPECT_EQ(pileup.reads_added(), 1U);
  EXPECT_EQ(pileup.count(2, Base::A), 1U);
  EXPECT_EQ(pileup.count(3, Base::C), 1U);
  EXPECT_EQ(pileup.count(5, Base::T), 1U);
  EXPECT_EQ(pileup.depth(2), 1U);
  EXPECT_EQ(pileup.depth(0), 0U);
  EXPECT_EQ(pileup.depth(6), 0U);
}

TEST(Pileup, CigarWalking) {
  // 2M 1I 2M 1D 2M over read ACGTAAC... read = A C | G | T A | (del) | A C
  Pileup pileup(10);
  AlignedRead read;
  read.position = 0;
  read.bases = genome::encode("ACGTAAC");
  read.cigar = {{align::CigarOp::kMatch, 2},
                {align::CigarOp::kInsertion, 1},
                {align::CigarOp::kMatch, 2},
                {align::CigarOp::kDeletion, 1},
                {align::CigarOp::kMatch, 2}};
  pileup.add(read);
  EXPECT_EQ(pileup.count(0, Base::A), 1U);
  EXPECT_EQ(pileup.count(1, Base::C), 1U);
  // G was the insertion: attributed to no reference position.
  EXPECT_EQ(pileup.count(2, Base::T), 1U);
  EXPECT_EQ(pileup.count(3, Base::A), 1U);
  EXPECT_EQ(pileup.depth(4), 0U);  // deleted reference base: no observation
  EXPECT_EQ(pileup.count(5, Base::A), 1U);
  EXPECT_EQ(pileup.count(6, Base::C), 1U);
}

TEST(Pileup, ReadPastReferenceEndIgnored) {
  Pileup pileup(4);
  AlignedRead read;
  read.position = 2;
  read.bases = genome::encode("ACGT");
  EXPECT_NO_THROW(pileup.add(read));
  EXPECT_EQ(pileup.depth(2), 1U);
  EXPECT_EQ(pileup.depth(3), 1U);
}

TEST(Pileup, BadCigarThrows) {
  Pileup pileup(10);
  AlignedRead read;
  read.position = 0;
  read.bases = genome::encode("AC");
  read.cigar = {{align::CigarOp::kMatch, 5}};  // consumes past the read
  EXPECT_THROW(pileup.add(read), std::invalid_argument);
}

TEST(Pileup, ConsensusAndMeanDepth) {
  Pileup pileup(3);
  for (int i = 0; i < 3; ++i) {
    AlignedRead read;
    read.position = 0;
    read.bases = genome::encode("AGT");
    pileup.add(read);
  }
  AlignedRead dissent;
  dissent.position = 0;
  dissent.bases = genome::encode("CGT");
  pileup.add(dissent);
  EXPECT_EQ(pileup.consensus(0), Base::A);  // 3 A vs 1 C
  EXPECT_EQ(pileup.consensus(1), Base::G);
  EXPECT_DOUBLE_EQ(pileup.mean_depth(), 4.0);
}

// --- SNV caller ----------------------------------------------------------------

TEST(SnvCaller, LengthMismatchThrows) {
  Pileup pileup(10);
  EXPECT_THROW(call_snvs(pileup, PackedSequence("ACGT")),
               std::invalid_argument);
}

TEST(SnvCaller, CallsPlantedSite) {
  const PackedSequence reference("AAAAAAAAAA");
  Pileup pileup(10);
  for (int i = 0; i < 10; ++i) {
    AlignedRead read;
    read.position = 0;
    read.bases = genome::encode("AAAAGAAAAA");  // G at position 4
    pileup.add(read);
  }
  const auto calls = call_snvs(pileup, reference);
  ASSERT_EQ(calls.size(), 1U);
  EXPECT_EQ(calls[0].position, 4U);
  EXPECT_EQ(calls[0].ref_base, Base::A);
  EXPECT_EQ(calls[0].alt_base, Base::G);
  EXPECT_EQ(calls[0].depth, 10U);
  EXPECT_DOUBLE_EQ(calls[0].alt_fraction, 1.0);
}

TEST(SnvCaller, ThresholdsSuppressNoise) {
  const PackedSequence reference("AAAAAAAAAA");
  Pileup pileup(10);
  // 10 clean reads + 2 reads with an error at position 7.
  for (int i = 0; i < 10; ++i) {
    AlignedRead read;
    read.position = 0;
    read.bases = genome::encode("AAAAAAAAAA");
    pileup.add(read);
  }
  for (int i = 0; i < 2; ++i) {
    AlignedRead read;
    read.position = 0;
    read.bases = genome::encode("AAAAAAATAA");
    pileup.add(read);
  }
  EXPECT_TRUE(call_snvs(pileup, reference).empty());  // 2/12 < 50%
  SnvCallerOptions loose;
  loose.min_alt_fraction = 0.1;
  loose.min_alt_count = 2;
  const auto calls = call_snvs(pileup, reference, loose);
  ASSERT_EQ(calls.size(), 1U);
  EXPECT_EQ(calls[0].position, 7U);
}

TEST(SnvCaller, ScoreCalls) {
  std::vector<SnvCall> calls;
  calls.push_back({100, Base::A, Base::G, 20, 19, 0.95});
  calls.push_back({200, Base::C, Base::T, 20, 18, 0.9});
  calls.push_back({300, Base::G, Base::A, 20, 20, 1.0});  // false positive
  const std::vector<std::pair<std::uint64_t, Base>> truth = {
      {100, Base::G}, {200, Base::T}, {400, Base::C}};  // 400 missed
  const auto accuracy = score_calls(calls, truth);
  EXPECT_EQ(accuracy.true_positives, 2U);
  EXPECT_EQ(accuracy.false_positives, 1U);
  EXPECT_EQ(accuracy.false_negatives, 1U);
  EXPECT_NEAR(accuracy.precision(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(accuracy.recall(), 2.0 / 3.0, 1e-12);
}

// --- End to end: plant SNVs, sequence, align, pile, call ------------------------

TEST(SnvCaller, EndToEndRecoversPlantedVariants) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 30000;
  spec.seed = 51;
  const PackedSequence reference = genome::generate_reference(spec);
  const auto fm = pim::index::FmIndex::build(reference, {.bucket_width = 128});

  // Haploid donor: 25 planted SNVs.
  PackedSequence donor = reference;
  util::Xoshiro256 rng(52);
  std::vector<std::pair<std::uint64_t, Base>> truth;
  for (int v = 0; v < 25; ++v) {
    const std::uint64_t pos = 200 + rng.bounded(reference.size() - 400);
    const Base ref_base = reference.at(pos);
    const Base alt =
        static_cast<Base>((static_cast<int>(ref_base) + 1 +
                           static_cast<int>(rng.bounded(3))) % 4);
    if (alt == ref_base) continue;
    donor.set(pos, alt);
    truth.emplace_back(pos, alt);
  }

  // ~20x coverage of 100-bp reads from the donor.
  readsim::ReadSimSpec rspec;
  rspec.read_length = 100;
  rspec.num_reads = 6000;
  rspec.population_variation_rate = 0.0;  // variants are planted, not drawn
  rspec.sequencing_error_rate = 0.002;
  rspec.seed = 53;
  const auto set = readsim::ReadSimulator(rspec).generate(donor);

  // Align to the REFERENCE and pile up.
  align::AlignerOptions options;
  options.inexact.max_diffs = 2;
  options.max_hits = 4;
  align::ReadBatchBuilder builder;
  for (const auto& read : set.reads) builder.add(read.bases);
  align::BatchResult results;
  align::SoftwareEngine(fm, options).align_batch(builder.build(), results);
  Pileup pileup(reference.size());
  for (std::size_t i = 0; i < set.reads.size(); ++i) {
    const auto& read = set.reads[i];
    const auto best = results.best(i);
    if (!best) continue;
    AlignedRead aligned;
    aligned.position = best->position;
    aligned.bases = best->strand == align::Strand::kForward
                        ? read.bases
                        : genome::reverse_complement(read.bases);
    pileup.add(aligned);
  }
  EXPECT_GT(pileup.mean_depth(), 12.0);

  const auto calls = call_snvs(pileup, reference);
  const auto accuracy = score_calls(calls, truth);
  EXPECT_GT(accuracy.recall(), 0.9);
  EXPECT_GT(accuracy.precision(), 0.9);
}

}  // namespace
}  // namespace pim::varcall
