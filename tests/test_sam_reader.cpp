#include "src/varcall/sam_reader.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/align/engine.h"
#include "src/align/sam_writer.h"
#include "src/genome/synthetic_genome.h"
#include "src/readsim/read_simulator.h"
#include "src/varcall/snv_caller.h"

namespace pim::varcall {
namespace {

using genome::Base;

TEST(ParseCigar, Basics) {
  const auto entries = parse_cigar("4M1D3M");
  ASSERT_EQ(entries.size(), 3U);
  EXPECT_EQ(entries[0].op, align::CigarOp::kMatch);
  EXPECT_EQ(entries[0].length, 4U);
  EXPECT_EQ(entries[1].op, align::CigarOp::kDeletion);
  EXPECT_EQ(entries[2].length, 3U);
  EXPECT_TRUE(parse_cigar("*").empty());
}

TEST(ParseCigar, ExtendedOps) {
  // X/= are matches; S behaves like I (read-only); H/P vanish; N like D.
  const auto entries = parse_cigar("2S3=1X4N2M1H");
  ASSERT_EQ(entries.size(), 5U);
  EXPECT_EQ(entries[0].op, align::CigarOp::kInsertion);
  EXPECT_EQ(entries[1].op, align::CigarOp::kMatch);
  EXPECT_EQ(entries[2].op, align::CigarOp::kMatch);
  EXPECT_EQ(entries[3].op, align::CigarOp::kDeletion);
  EXPECT_EQ(entries[4].op, align::CigarOp::kMatch);
}

TEST(ParseCigar, MalformedThrows) {
  EXPECT_THROW(parse_cigar("M"), std::runtime_error);      // no run
  EXPECT_THROW(parse_cigar("0M"), std::runtime_error);     // zero run
  EXPECT_THROW(parse_cigar("3Q"), std::runtime_error);     // unknown op
  EXPECT_THROW(parse_cigar("12"), std::runtime_error);     // trailing run
}

TEST(ParseSamRecord, FiltersAndParses) {
  SamReadStats stats;
  AlignedRead read;
  // Mapped primary record on the right contig.
  EXPECT_TRUE(parse_sam_record(
      "q1\t0\tchr1\t101\t60\t4M\t*\t0\t0\tACGT\tIIII\tNM:i:0", "chr1", read,
      stats));
  EXPECT_EQ(read.position, 100U);
  EXPECT_EQ(read.bases, genome::encode("ACGT"));
  ASSERT_EQ(read.cigar.size(), 1U);
  // Unmapped (0x4), secondary (0x100), other contig: skipped.
  EXPECT_FALSE(parse_sam_record("q2\t4\t*\t0\t0\t*\t*\t0\t0\tACGT\t*", "chr1",
                                read, stats));
  EXPECT_FALSE(parse_sam_record(
      "q3\t256\tchr1\t5\t0\t4M\t*\t0\t0\tACGT\t*", "chr1", read, stats));
  EXPECT_FALSE(parse_sam_record(
      "q4\t0\tchr2\t5\t60\t4M\t*\t0\t0\tACGT\t*", "chr1", read, stats));
  EXPECT_EQ(stats.records, 4U);
  EXPECT_EQ(stats.used, 1U);
  EXPECT_EQ(stats.unmapped, 1U);
  EXPECT_EQ(stats.secondary, 1U);
  EXPECT_EQ(stats.other_reference, 1U);
}

TEST(ParseSamRecord, MalformedThrows) {
  SamReadStats stats;
  AlignedRead read;
  EXPECT_THROW(parse_sam_record("too\tfew\tfields", "c", read, stats),
               std::runtime_error);
  EXPECT_THROW(parse_sam_record(
                   "q\tNOTNUM\tc\t1\t60\t1M\t*\t0\t0\tA\t*", "c", read, stats),
               std::runtime_error);
}

// Round trip: align -> SamWriter -> pileup_from_sam -> SNV calls equal the
// direct in-memory pipeline.
TEST(SamReader, RoundTripVariantCalling) {
  genome::SyntheticGenomeSpec spec;
  spec.length = 20000;
  spec.seed = 81;
  const auto reference = genome::generate_reference(spec);
  auto donor = reference;
  const std::uint64_t snv_pos = 7777;
  const Base alt = static_cast<Base>(
      (static_cast<int>(reference.at(snv_pos)) + 1) % 4);
  donor.set(snv_pos, alt);

  const auto fm = pim::index::FmIndex::build(reference, {.bucket_width = 128});
  align::AlignerOptions options;
  options.inexact.max_diffs = 2;
  const align::SoftwareEngine engine(fm, options);

  readsim::ReadSimSpec rspec;
  rspec.read_length = 100;
  rspec.num_reads = 4000;
  rspec.population_variation_rate = 0.0;
  rspec.sequencing_error_rate = 0.001;
  rspec.seed = 82;
  const auto set = readsim::ReadSimulator(rspec).generate(donor);

  // Write SAM and, in parallel, fill a direct pileup.
  std::stringstream sam;
  align::SamWriter writer(sam, "demo", reference);
  writer.write_header();
  Pileup direct(reference.size());
  align::ReadBatchBuilder builder;
  for (std::size_t i = 0; i < set.reads.size(); ++i) {
    builder.add(set.reads[i].bases, "r" + std::to_string(i));
  }
  const align::ReadBatch batch = builder.build();
  align::BatchResult results;
  engine.align_batch(batch, results);
  writer.write_batch(batch, results);
  for (std::size_t i = 0; i < set.reads.size(); ++i) {
    if (const auto best = results.best(i)) {
      AlignedRead aligned;
      aligned.position = best->position;
      aligned.bases = best->strand == align::Strand::kForward
                          ? set.reads[i].bases
                          : genome::reverse_complement(set.reads[i].bases);
      direct.add(aligned);
    }
  }

  Pileup from_sam(reference.size());
  const auto stats = pileup_from_sam(sam, "demo", from_sam);
  EXPECT_GT(stats.used, 3000U);
  EXPECT_EQ(stats.other_reference, 0U);

  // The SAM path only keeps primary records; the direct path used best()
  // which is the same single hit, so the pileups must agree.
  for (std::uint64_t pos = 0; pos < reference.size(); pos += 97) {
    EXPECT_EQ(from_sam.depth(pos), direct.depth(pos)) << pos;
  }
  const auto calls = call_snvs(from_sam, reference);
  ASSERT_EQ(calls.size(), 1U);
  EXPECT_EQ(calls[0].position, snv_pos);
  EXPECT_EQ(calls[0].alt_base, alt);
}

}  // namespace
}  // namespace pim::varcall
