#include "src/align/sam_writer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "src/genome/fasta.h"
#include "src/genome/fastq.h"
#include "src/genome/multi_reference.h"
#include "src/genome/synthetic_genome.h"
#include "src/util/rng.h"
#include "tests/temp_dir.h"

namespace pim::align {
namespace {

using genome::Base;
using genome::PackedSequence;

struct Fixture {
  PackedSequence reference;
  index::FmIndex fm;
  Fixture() {
    genome::SyntheticGenomeSpec spec;
    spec.length = 8000;
    spec.seed = 4;
    reference = genome::generate_reference(spec);
    fm = index::FmIndex::build(reference, {.bucket_width = 64});
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

std::vector<std::string> split(const std::string& line, char sep = '\t') {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string field;
  while (std::getline(in, field, sep)) out.push_back(field);
  return out;
}

TEST(SamWriter, HeaderLines) {
  const Fixture f;
  std::ostringstream out;
  SamWriter writer(out, "chrTest", f.reference);
  writer.write_header("pim-aligner", "9.9");
  const std::string text = out.str();
  EXPECT_NE(text.find("@HD\tVN:1.6"), std::string::npos);
  EXPECT_NE(text.find("@SQ\tSN:chrTest\tLN:8000"), std::string::npos);
  EXPECT_NE(text.find("@PG\tID:pim-aligner"), std::string::npos);
}

TEST(SamWriter, ExactForwardHit) {
  const Fixture f;
  const auto read = f.reference.slice(1000, 1050);
  const auto result = align_one(f.fm, read);
  std::ostringstream out;
  SamWriter writer(out, "chrTest", f.reference);
  writer.write_alignment("q1", read, result);
  ASSERT_GE(writer.records_written(), 1U);
  const auto fields = split(split(out.str(), '\n')[0]);
  ASSERT_GE(fields.size(), 11U);
  EXPECT_EQ(fields[0], "q1");
  EXPECT_EQ(fields[1], "0");          // forward, primary, mapped
  EXPECT_EQ(fields[2], "chrTest");
  EXPECT_EQ(fields[3], "1001");       // 1-based
  EXPECT_EQ(fields[5], "50M");
  EXPECT_EQ(fields[9], genome::decode(read));
  EXPECT_NE(out.str().find("NM:i:0"), std::string::npos);
}

TEST(SamWriter, ReverseStrandHitStoresReferenceOrientation) {
  const Fixture f;
  const auto fwd = f.reference.slice(3000, 3040);
  const auto read = genome::reverse_complement(fwd);
  const auto result = align_one(f.fm, read);
  ASSERT_EQ(result.stage, AlignmentStage::kExact);
  std::ostringstream out;
  SamWriter writer(out, "chrTest", f.reference);
  const std::string qual(read.size(), 'I');
  writer.write_alignment("q2", read, result, qual);
  const auto fields = split(split(out.str(), '\n')[0]);
  EXPECT_EQ(std::stoi(fields[1]) & SamRecord::kFlagReverse,
            SamRecord::kFlagReverse);
  // SEQ is in reference orientation == the original forward slice.
  EXPECT_EQ(fields[9], genome::decode(fwd));
  EXPECT_EQ(fields[10], qual);  // flat quality is its own reverse
}

TEST(SamWriter, UnalignedRecord) {
  const Fixture f;
  AlignmentResult empty;  // kUnaligned
  std::ostringstream out;
  SamWriter writer(out, "chrTest", f.reference);
  writer.write_alignment("q3", genome::encode("ACGTACGT"), empty);
  const auto fields = split(split(out.str(), '\n')[0]);
  EXPECT_EQ(std::stoi(fields[1]) & SamRecord::kFlagUnmapped,
            SamRecord::kFlagUnmapped);
  EXPECT_EQ(fields[2], "*");
  EXPECT_EQ(fields[3], "0");
  EXPECT_EQ(fields[5], "*");
  EXPECT_EQ(out.str().find("NM:i:"), std::string::npos);
}

TEST(SamWriter, SecondaryFlagsForMultiHits) {
  // A repetitive reference: the read maps to many places.
  const PackedSequence reference("ACGTACGTACGTACGTACGTACGTACGTACGT");
  const auto fm = index::FmIndex::build(reference, {.bucket_width = 8});
  const auto read = genome::encode("ACGTACGT");
  const auto result = align_one(fm, read);
  ASSERT_GT(result.hits.size(), 1U);
  std::ostringstream out;
  SamWriter writer(out, "rep", reference);
  writer.write_alignment("q4", read, result);
  const auto lines = split(out.str(), '\n');
  int secondary = 0;
  for (const auto& line : lines) {
    if (line.empty()) continue;
    const auto fields = split(line);
    if (std::stoi(fields[1]) & SamRecord::kFlagSecondary) ++secondary;
  }
  EXPECT_EQ(secondary, static_cast<int>(writer.records_written()) - 1);
  // Multi-mapped primary gets a low MAPQ.
  EXPECT_LE(std::stoi(split(lines[0])[4]), 3);
}

TEST(SamWriter, MismatchHitKeepsFullLengthCigar) {
  const Fixture f;
  AlignerOptions opt;
  opt.inexact.max_diffs = 1;
  auto read = f.reference.slice(2000, 2040);
  read[20] = static_cast<Base>((static_cast<int>(read[20]) + 1) % 4);
  const auto result = align_one(f.fm, read, opt);
  ASSERT_EQ(result.stage, AlignmentStage::kInexact);
  std::ostringstream out;
  SamWriter writer(out, "chrTest", f.reference);
  writer.write_alignment("q5", read, result);
  const auto fields = split(split(out.str(), '\n')[0]);
  // A substitution keeps the CIGAR one 40M run; NM carries the distance.
  EXPECT_EQ(fields[5], "40M");
  EXPECT_NE(out.str().find("NM:i:1"), std::string::npos);
}

TEST(SamWriter, IndelHitProducesIndelCigar) {
  const Fixture f;
  AlignerOptions opt;
  opt.inexact.max_diffs = 1;
  opt.inexact.mode = EditMode::kFullEdit;
  auto bases = f.reference.slice(4000, 4041);
  bases.erase(bases.begin() + 20);  // 1-bp deletion in the read
  const auto result = align_one(f.fm, bases, opt);
  ASSERT_TRUE(result.aligned());
  std::ostringstream out;
  SamWriter writer(out, "chrTest", f.reference);
  writer.write_alignment("q6", bases, result);
  bool has_indel_cigar = false;
  for (const auto& line : split(out.str(), '\n')) {
    if (line.empty()) continue;
    const auto fields = split(line);
    if (fields[5].find('D') != std::string::npos ||
        fields[5].find('I') != std::string::npos) {
      has_indel_cigar = true;
    }
  }
  EXPECT_TRUE(has_indel_cigar);
}

TEST(SamWriter, QualityLengthMismatchThrows) {
  const Fixture f;
  std::ostringstream out;
  SamWriter writer(out, "chrTest", f.reference);
  AlignmentResult empty;
  EXPECT_THROW(
      writer.write_alignment("q", genome::encode("ACGT"), empty,
                             std::string("II")),
      std::invalid_argument);
}

/// One pair through the batch API, the aligner's only entry point.
PairedResult align_one_pair(const PairedAligner& aligner,
                            const std::vector<Base>& read1,
                            const std::vector<Base>& read2) {
  return aligner
      .align_pairs(ReadBatch::from_reads({read1}),
                   ReadBatch::from_reads({read2}))
      .front();
}

TEST(SamWriter, ProperPairRecords) {
  const Fixture f;
  PairedOptions popt;
  popt.single.inexact.max_diffs = 2;
  popt.insert_mean = 300;
  popt.insert_sd = 30;
  const PairedAligner paired(f.fm, popt);
  const auto r1 = f.reference.slice(1000, 1100);
  const auto r2 = genome::reverse_complement(f.reference.slice(1200, 1300));
  const auto result = align_one_pair(paired, r1, r2);
  ASSERT_EQ(result.cls, PairClass::kProperPair);

  std::ostringstream out;
  SamWriter writer(out, "chrTest", f.reference);
  writer.write_pair("p1", r1, r2, result);
  const auto lines = split(out.str(), '\n');
  ASSERT_GE(lines.size(), 2U);
  const auto f1 = split(lines[0]);
  const auto f2 = split(lines[1]);
  const int flag1 = std::stoi(f1[1]);
  const int flag2 = std::stoi(f2[1]);
  EXPECT_TRUE(flag1 & SamRecord::kFlagPaired);
  EXPECT_TRUE(flag1 & SamRecord::kFlagProperPair);
  EXPECT_TRUE(flag1 & SamRecord::kFlagFirstInPair);
  EXPECT_TRUE(flag2 & SamRecord::kFlagSecondInPair);
  EXPECT_TRUE(flag1 & SamRecord::kFlagMateReverse);  // mate 2 is reverse
  EXPECT_TRUE(flag2 & SamRecord::kFlagReverse);
  // Cross links: RNEXT "=", PNEXT = mate's POS, TLEN +/- 300.
  EXPECT_EQ(f1[6], "=");
  EXPECT_EQ(f1[7], f2[3]);
  EXPECT_EQ(f2[7], f1[3]);
  EXPECT_EQ(std::stol(f1[8]), 300);
  EXPECT_EQ(std::stol(f2[8]), -300);
}

TEST(SamWriter, OneMateUnmappedPair) {
  const Fixture f;
  PairedOptions popt;
  popt.single.inexact.max_diffs = 0;
  const PairedAligner paired(f.fm, popt);
  const auto r1 = f.reference.slice(2000, 2100);
  std::vector<Base> junk(100, Base::A);
  junk[3] = Base::C;  // poly-A-ish junk: not in this reference
  const auto result = align_one_pair(paired, r1, junk);
  ASSERT_EQ(result.cls, PairClass::kOneMate);

  std::ostringstream out;
  SamWriter writer(out, "chrTest", f.reference);
  writer.write_pair("p2", r1, junk, result);
  const auto lines = split(out.str(), '\n');
  const int flag1 = std::stoi(split(lines[0])[1]);
  const int flag2 = std::stoi(split(lines[1])[1]);
  EXPECT_TRUE(flag1 & SamRecord::kFlagMateUnmapped);
  EXPECT_FALSE(flag1 & SamRecord::kFlagProperPair);
  EXPECT_TRUE(flag2 & SamRecord::kFlagUnmapped);
  EXPECT_TRUE(flag2 & SamRecord::kFlagSecondInPair);
}

TEST(SamWriter, SanitizeQname) {
  EXPECT_EQ(sanitize_qname("read1"), "read1");
  EXPECT_EQ(sanitize_qname("read1 ground:truth comment"), "read1");
  EXPECT_EQ(sanitize_qname("read1\tBC:Z:ACGT"), "read1");
  EXPECT_EQ(sanitize_qname(" leading"), "");
  EXPECT_EQ(sanitize_qname(""), "");
}

TEST(SamWriter, EmptyBatchWritesNothing) {
  const Fixture f;
  std::ostringstream out;
  SamWriter writer(out, "chrTest", f.reference);
  const ReadBatch batch;
  const BatchResult results;
  writer.write_batch(batch, results);
  EXPECT_TRUE(out.str().empty());
  EXPECT_EQ(writer.records_written(), 0U);
}

// An empty FASTQ record parses; it must come out as one unmapped record,
// not as a hit at every reference position.
TEST(SamWriter, EmptyFastqRecordIsOneUnmappedRecord) {
  const Fixture f;
  std::istringstream fastq("@e\n\n+\n\n");
  const auto batch = ReadBatch::from_fastq(genome::read_fastq(fastq));
  ASSERT_EQ(batch.size(), 1U);
  for (const std::size_t max_hits : {0u, 64u}) {
    AlignerOptions options;
    options.inexact.max_diffs = 2;
    options.max_hits = max_hits;
    BatchResult results;
    SoftwareEngine(f.fm, options).align_batch(batch, results);
    std::ostringstream out;
    SamWriter writer(out, "chrTest", f.reference);
    writer.write_batch(batch, results);
    EXPECT_EQ(out.str(), "e\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*\n")
        << "max_hits " << max_hits;
    EXPECT_EQ(writer.records_written(), 1U);
  }
}

// Golden-file test over hand-built pair results, covering the pair flag
// bits, TLEN signs (including the r1.pos == r2.pos tie), QNAME comment
// trimming, and the unmapped-mate placement recommended by the SAM spec.
// Every field is deterministic: forced exact hits make CIGAR/NM trivial and
// MAPQ fixed. On a mismatch the actual output is dumped to a kept temp
// directory named in the failure.
TEST(SamWriter, PairedGoldenFile) {
  const std::string ref_str =
      "ACGTAGCTTGCAATCGGATCAAGCTTGACCGTTAGGCCAT"
      "GGATCCAGTACTGGTTACGCGTTAACCGGATATCGGCTAA"
      "CCTAGGTTGCAGATCCGGAACGTTGCCTAGATCGGATTCA"
      "TTGACCGGTAAGCTTGGATCCGTAACGGCTTAGGCATCGA"
      "AGGCTTAACCGGATCGTTGCAGGATCCATAGGCTTAACGG";
  const PackedSequence reference(ref_str);
  ASSERT_EQ(reference.size(), 200U);

  std::ostringstream out;
  SamWriter writer(out, "chrG", reference);
  writer.write_header();

  // Pair A: proper pair, mate 2 reverse, FASTQ comment in the QNAME.
  {
    const AlignmentHit h1{10, 0, Strand::kForward};
    const AlignmentHit h2{110, 0, Strand::kReverseComplement};
    PairedResult res;
    res.cls = PairClass::kProperPair;
    res.pair = ProperPair{h1, h2, 120, 0};
    res.mate1 = {AlignmentStage::kExact, {h1}};
    res.mate2 = {AlignmentStage::kExact, {h2}};
    writer.write_pair("pairA ground:truth comment", reference.slice(10, 30),
                      genome::reverse_complement(reference.slice(110, 130)),
                      res, std::string("AAAABBBBCCCCDDDDEEEE"),
                      std::string("FFFFGGGGHHHHIIIIJJJJ"));
  }
  // Pair B: both mates start at the same coordinate — the TLEN signs must
  // still be one plus and one minus.
  {
    const AlignmentHit h1{50, 0, Strand::kForward};
    const AlignmentHit h2{50, 0, Strand::kReverseComplement};
    PairedResult res;
    res.cls = PairClass::kProperPair;
    res.pair = ProperPair{h1, h2, 20, 0};
    res.mate1 = {AlignmentStage::kExact, {h1}};
    res.mate2 = {AlignmentStage::kExact, {h2}};
    writer.write_pair("pairB", reference.slice(50, 70),
                      genome::reverse_complement(reference.slice(50, 70)),
                      res);
  }
  // Pair C: mate 2 unmapped — per spec it takes its mate's RNAME/POS so the
  // pair survives coordinate sorting, and keeps flag 0x4 with CIGAR "*".
  {
    const AlignmentHit h1{30, 0, Strand::kForward};
    PairedResult res;
    res.cls = PairClass::kOneMate;
    res.mate1 = {AlignmentStage::kExact, {h1}};
    writer.write_pair("pairC", reference.slice(30, 50),
                      genome::encode("ACACACACACACACACACAC"), res);
  }

  const auto lines = split(out.str(), '\n');
  ASSERT_GE(lines.size(), 9U);  // 3 header + 6 records

  // Semantic spot checks, independent of the golden bytes.
  const auto a1 = split(lines[3]), a2 = split(lines[4]);
  EXPECT_EQ(a1[0], "pairA");  // comment trimmed...
  EXPECT_EQ(a2[0], "pairA");  // ...identically on both mates
  EXPECT_EQ(std::stoi(a1[1]), 0x1 | 0x2 | 0x20 | 0x40);  // 99
  EXPECT_EQ(std::stoi(a2[1]), 0x1 | 0x2 | 0x10 | 0x80);  // 147
  EXPECT_EQ(std::stol(a1[8]), 120);
  EXPECT_EQ(std::stol(a2[8]), -120);
  EXPECT_EQ(a2[10], "JJJJIIIIHHHHGGGGFFFF");  // reversed qualities

  const auto b1 = split(lines[5]), b2 = split(lines[6]);
  EXPECT_EQ(b1[3], b2[3]);  // tie: same POS
  EXPECT_EQ(std::stol(b1[8]), 20);
  EXPECT_EQ(std::stol(b2[8]), -20);

  const auto c1 = split(lines[7]), c2 = split(lines[8]);
  EXPECT_TRUE(std::stoi(c1[1]) & SamRecord::kFlagMateUnmapped);
  EXPECT_TRUE(std::stoi(c2[1]) & SamRecord::kFlagUnmapped);
  EXPECT_EQ(c2[2], c1[2]);  // unmapped mate placed at its mate's RNAME...
  EXPECT_EQ(c2[3], c1[3]);  // ...and POS
  EXPECT_EQ(c2[5], "*");    // but stays CIGAR-less
  EXPECT_EQ(c1[6], "=");
  EXPECT_EQ(c1[7], c1[3]);  // PNEXT = co-located mate
  EXPECT_EQ(c2[6], "=");

  // Byte-exact golden comparison.
  tests::expect_golden(out.str(), "paired_end.sam");
}

// ---------------------------------------------------------------------------
// Multi-chromosome output: one index over the concatenation, and the writer
// maps every hit back to its chromosome and drops junction artefacts.
// ---------------------------------------------------------------------------

genome::MultiReference three_chromosomes() {
  std::vector<std::pair<std::string, PackedSequence>> parts;
  parts.emplace_back("chr1", genome::generate_uniform(1000, 1));
  parts.emplace_back("chr2", genome::generate_uniform(500, 2));
  parts.emplace_back("chr3", genome::generate_uniform(1500, 3));
  return genome::MultiReference::from_parts(std::move(parts));
}

/// The primary record's RNAME and POS.
std::pair<std::string, std::uint64_t> primary_placement(
    const std::vector<SamRecord>& records) {
  for (const auto& rec : records) {
    if ((rec.flag & SamRecord::kFlagSecondary) == 0) {
      return {rec.rname, rec.pos};
    }
  }
  return {"", 0};
}

TEST(SamWriter, HitsResolveToChromosomes) {
  const auto ref = three_chromosomes();
  const auto fm =
      index::FmIndex::build(ref.concatenated(), {.bucket_width = 64});
  std::ostringstream out;
  SamWriter writer(out, ref.concatenated(), ref.chromosomes());
  writer.write_header();
  EXPECT_NE(out.str().find("@SQ\tSN:chr1\tLN:1000\n@SQ\tSN:chr2\tLN:500\n"
                           "@SQ\tSN:chr3\tLN:1500\n"),
            std::string::npos);
  // A read planted inside chr2.
  const auto read = ref.concatenated().slice(1100, 1160);
  const auto records = writer.make_records("q", read, align_one(fm, read));
  EXPECT_EQ(primary_placement(records),
            (std::pair<std::string, std::uint64_t>{"chr2", 101}));
  EXPECT_EQ(writer.junction_artifacts_dropped(), 0U);
}

TEST(SamWriter, JunctionArtifactsFiltered) {
  // chrA ends with the probe's prefix, chrB starts with its suffix:
  // "CCCCGGGG" exists only across the junction.
  std::vector<std::pair<std::string, PackedSequence>> parts;
  parts.emplace_back("chrA", PackedSequence("ACGTACGTAAAACCCC"));
  parts.emplace_back("chrB", PackedSequence("GGGGTTTTACGTACGT"));
  const auto ref = genome::MultiReference::from_parts(std::move(parts));
  const auto fm = index::FmIndex::build(ref.concatenated(), {.bucket_width = 8});
  AlignerOptions opt;
  opt.inexact.max_diffs = 0;
  opt.try_reverse_complement = false;
  const auto read = genome::encode("CCCCGGGG");
  const auto result = align_one(fm, read, opt);
  ASSERT_TRUE(result.aligned());  // the engine does see the artefact

  std::ostringstream out;
  SamWriter writer(out, ref.concatenated(), ref.chromosomes());
  const auto records = writer.make_records("q", read, result);
  ASSERT_EQ(records.size(), 1U);
  EXPECT_TRUE(records[0].flag & SamRecord::kFlagUnmapped);
  EXPECT_EQ(records[0].rname, "*");
  EXPECT_EQ(writer.junction_artifacts_dropped(), 1U);
}

TEST(SamWriter, HitAtChromosomeEndNotDropped) {
  const auto ref = three_chromosomes();
  const auto fm =
      index::FmIndex::build(ref.concatenated(), {.bucket_width = 64});
  AlignerOptions opt;
  opt.inexact.max_diffs = 2;  // a read + z span would overrun the end
  std::ostringstream out;
  SamWriter writer(out, ref.concatenated(), ref.chromosomes());
  // The last 40 bp of chr3 (the last chromosome) and of chr1 (an inner one).
  const auto last = ref.concatenated().slice(2960, 3000);
  EXPECT_EQ(primary_placement(
                writer.make_records("q", last, align_one(fm, last, opt))),
            (std::pair<std::string, std::uint64_t>{"chr3", 1461}));
  const auto inner = ref.concatenated().slice(960, 1000);
  EXPECT_EQ(primary_placement(
                writer.make_records("q", inner, align_one(fm, inner, opt))),
            (std::pair<std::string, std::uint64_t>{"chr1", 961}));
  EXPECT_EQ(writer.junction_artifacts_dropped(), 0U);
}

TEST(SamWriter, InexactHitDroppedOnlyWhenItsAlignmentCrossesTheJunction) {
  const auto ref = three_chromosomes();
  const auto& concat = ref.concatenated();
  std::ostringstream out;
  SamWriter writer(out, concat, ref.chromosomes());
  // The last 40 bp of chr1 with one substitution: the CIGAR window reaches
  // into chr2, but the alignment itself ends at chr1's end.
  auto fits = concat.slice(960, 1000);
  fits[20] = static_cast<Base>((static_cast<int>(fits[20]) + 1) % 4);
  const AlignmentResult kept{AlignmentStage::kInexact,
                             {{960, 1, Strand::kForward}}};
  const auto records = writer.make_records("q", fits, kept);
  EXPECT_EQ(primary_placement(records),
            (std::pair<std::string, std::uint64_t>{"chr1", 961}));
  EXPECT_EQ(records[0].cigar, "40M");
  EXPECT_EQ(writer.junction_artifacts_dropped(), 0U);
  // One base later the alignment ends one base inside chr2.
  auto crosses = concat.slice(961, 1001);
  crosses[10] = static_cast<Base>((static_cast<int>(crosses[10]) + 1) % 4);
  const AlignmentResult dropped{AlignmentStage::kInexact,
                                {{961, 1, Strand::kForward}}};
  EXPECT_TRUE(writer.make_records("q", crosses, dropped)[0].flag &
              SamRecord::kFlagUnmapped);
  EXPECT_EQ(writer.junction_artifacts_dropped(), 1U);
}

TEST(SamWriter, DroppedHitsDoNotCountTowardMapq) {
  const auto ref = three_chromosomes();
  const auto& concat = ref.concatenated();
  std::ostringstream out;
  SamWriter writer(out, concat, ref.chromosomes());
  const auto read = concat.slice(100, 140);
  // One real placement plus one junction artefact: the survivor is unique.
  const AlignmentResult result{
      AlignmentStage::kExact,
      {{100, 0, Strand::kForward}, {980, 0, Strand::kForward}}};
  const auto records = writer.make_records("q", read, result);
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0].mapq, estimate_mapq(1, 0));
  EXPECT_EQ(writer.junction_artifacts_dropped(), 1U);
}

TEST(SamWriter, TableNotTilingReferenceRejected) {
  const auto ref = three_chromosomes();
  std::ostringstream out;
  const auto other = genome::generate_uniform(100, 9);
  EXPECT_THROW(SamWriter(out, other, ref.chromosomes()),
               std::invalid_argument);
  EXPECT_THROW(SamWriter(out, ref.concatenated(), {{"chr1", 0, 1000}}),
               std::invalid_argument);
  EXPECT_THROW(SamWriter(out, ref.concatenated(),
                         {{"chr1", 0, 2000}, {"chr2", 1000, 1000}}),
               std::invalid_argument);
  // An empty table is one chromosome named "ref".
  SamWriter fallback(out, ref.concatenated(), {});
  fallback.write_header();
  EXPECT_NE(out.str().find("@SQ\tSN:ref\tLN:3000\n"), std::string::npos);
}

TEST(SamWriter, PairAcrossChromosomes) {
  const auto ref = three_chromosomes();
  const auto& concat = ref.concatenated();
  std::ostringstream out;
  SamWriter writer(out, concat, ref.chromosomes());
  // Mate 1 ends chr1, mate 2 (reverse) starts chr2: the engine's insert
  // model sees one proper pair across the junction.
  const AlignmentHit h1{950, 0, Strand::kForward};
  const AlignmentHit h2{1010, 0, Strand::kReverseComplement};
  PairedResult res;
  res.cls = PairClass::kProperPair;
  res.pair = ProperPair{h1, h2, 90, 0};
  res.mate1 = {AlignmentStage::kExact, {h1}};
  res.mate2 = {AlignmentStage::kExact, {h2}};
  writer.write_pair("x", concat.slice(950, 980),
                    genome::reverse_complement(concat.slice(1010, 1040)), res);
  const auto lines = split(out.str(), '\n');
  const auto f1 = split(lines[0]), f2 = split(lines[1]);
  EXPECT_EQ(f1[2], "chr1");
  EXPECT_EQ(f1[3], "951");
  EXPECT_EQ(f2[2], "chr2");
  EXPECT_EQ(f2[3], "11");
  EXPECT_EQ(f1[6], "chr2");  // RNEXT names the mate's chromosome
  EXPECT_EQ(f1[7], "11");
  EXPECT_EQ(f2[6], "chr1");
  EXPECT_EQ(f2[7], "951");
  EXPECT_EQ(f1[8], "0");  // no TLEN across chromosomes
  EXPECT_EQ(f2[8], "0");
  EXPECT_FALSE(std::stoi(f1[1]) & SamRecord::kFlagProperPair);
  EXPECT_FALSE(std::stoi(f2[1]) & SamRecord::kFlagProperPair);
  EXPECT_TRUE(std::stoi(f1[1]) & SamRecord::kFlagMateReverse);
}

TEST(SamWriter, PairWithForcedHitAcrossJunction) {
  const auto ref = three_chromosomes();
  const auto& concat = ref.concatenated();
  std::ostringstream out;
  SamWriter writer(out, concat, ref.chromosomes());
  // Mate 2's forced hit straddles the chr1/chr2 junction.
  const AlignmentHit h1{900, 0, Strand::kForward};
  const AlignmentHit h2{990, 0, Strand::kReverseComplement};
  PairedResult res;
  res.cls = PairClass::kProperPair;
  res.pair = ProperPair{h1, h2, 120, 0};
  res.mate1 = {AlignmentStage::kExact, {h1}};
  res.mate2 = {AlignmentStage::kExact, {h2}};
  writer.write_pair("y", concat.slice(900, 930),
                    genome::reverse_complement(concat.slice(990, 1020)), res);
  EXPECT_EQ(writer.junction_artifacts_dropped(), 1U);
  const auto lines = split(out.str(), '\n');
  const auto f1 = split(lines[0]), f2 = split(lines[1]);
  const int flag1 = std::stoi(f1[1]), flag2 = std::stoi(f2[1]);
  EXPECT_TRUE(flag2 & SamRecord::kFlagUnmapped);
  EXPECT_TRUE(flag1 & SamRecord::kFlagMateUnmapped);
  EXPECT_FALSE(flag1 & SamRecord::kFlagProperPair);
  EXPECT_FALSE(flag2 & SamRecord::kFlagProperPair);
  EXPECT_EQ(f2[2], "chr1");  // placed at its mate, per the SAM spec
  EXPECT_EQ(f2[3], "901");
  EXPECT_EQ(f1[6], "=");
  EXPECT_EQ(f1[8], "0");
  EXPECT_EQ(f2[8], "0");
}

// Golden pin of multi-chromosome output over committed inputs: three FASTA
// records, one index over their concatenation. Each planted read is named
// <chromosome>_<1-based POS>_<kind>; the junction read comes out unmapped
// and counted. CI checks that both CLIs reproduce these bytes.
TEST(SamWriter, MultiChromosomeGoldenFile) {
  const std::string dir = std::string(PIMALIGNER_SOURCE_DIR) + "/tests/golden/";
  const auto ref = genome::MultiReference::from_fasta_records(
      genome::read_fasta_file(dir + "multi_chrom.fa"));
  ASSERT_EQ(ref.chromosomes().size(), 3U);
  const auto fm =
      index::FmIndex::build(ref.concatenated(), {.bucket_width = 128});
  const auto batch =
      ReadBatch::from_fastq(genome::read_fastq_file(dir + "multi_chrom.fastq"));
  AlignerOptions options;
  options.inexact.max_diffs = 2;
  BatchResult results;
  SoftwareEngine(fm, options).align_batch(batch, results);

  std::ostringstream out;
  SamWriter writer(out, ref.concatenated(), ref.chromosomes());
  writer.write_header();
  writer.write_batch(batch, results);
  EXPECT_EQ(writer.junction_artifacts_dropped(), 1U);

  std::size_t planted = 0;
  bool saw_reverse = false, saw_inexact = false;
  for (const auto& line : split(out.str(), '\n')) {
    if (line.empty() || line[0] == '@') continue;
    const auto fields = split(line);
    const int flag = std::stoi(fields[1]);
    if (flag & SamRecord::kFlagSecondary) continue;
    const auto name = split(fields[0], '_');
    if (name[0].rfind("chr", 0) != 0) {
      EXPECT_TRUE(flag & SamRecord::kFlagUnmapped) << line;
      continue;
    }
    ++planted;
    EXPECT_EQ(fields[2], name[0]) << line;
    EXPECT_EQ(fields[3], name[1]) << line;
    EXPECT_EQ((flag & SamRecord::kFlagReverse) != 0,
              fields[0].find("rev") != std::string::npos)
        << line;
    saw_reverse |= (flag & SamRecord::kFlagReverse) != 0;
    saw_inexact |= line.find("NM:i:0") == std::string::npos;
  }
  EXPECT_EQ(planted, 8U);
  EXPECT_TRUE(saw_reverse);
  EXPECT_TRUE(saw_inexact);
  tests::expect_golden(out.str(), "multi_chrom.sam");
}

/// Three chromosomes; chr2 carries a copy of a 150-bp block of chr1, so
/// reads from the block map twice (a primary and a secondary).
genome::MultiReference chromosomes_with_a_repeat() {
  const PackedSequence chr1 = genome::generate_uniform(3000, 21);
  PackedSequence chr2 = genome::generate_uniform(700, 22);
  for (const auto b : chr1.slice(1000, 1150)) chr2.push_back(b);
  for (const auto b : genome::generate_uniform(650, 23).unpack()) {
    chr2.push_back(b);
  }
  std::vector<std::pair<std::string, PackedSequence>> parts;
  parts.emplace_back("chr1", chr1);
  parts.emplace_back("chr2", std::move(chr2));
  parts.emplace_back("chr3", genome::generate_uniform(2000, 24));
  return genome::MultiReference::from_parts(std::move(parts));
}

/// The records make_records gives for each read of `batch`, one line each:
/// what write_chunk must write byte for byte.
std::string record_path(SamWriter& writer, const ReadBatch& batch,
                        const BatchResult& results, std::size_t base_index) {
  std::string text;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::string qname(batch.name(i));
    if (qname.empty()) qname = "read" + std::to_string(base_index + i);
    std::optional<std::string> qual;
    if (!batch.qualities(i).empty()) qual = std::string(batch.qualities(i));
    for (const auto& rec : writer.make_records(qname, batch.read(i).unpack(),
                                               results.result(i), qual)) {
      text += rec.to_line() + "\n";
    }
  }
  return text;
}

// write_chunk takes names, qualities and "read<i>" numbers from the batch
// and renders into one buffer; its bytes must equal the make_records /
// to_line lines of the same reads. Seeded reads cover forward and reverse
// exact hits, substituted reads (recomputed CIGARs), a repeat (secondary
// records), random reads (unmapped), reads across a junction (dropped),
// an empty read, names with comments, nameless reads numbered from a
// nonzero base index, and a batch without qualities.
TEST(SamWriter, WriteBatchMatchesRecordPath) {
  const auto ref = chromosomes_with_a_repeat();
  const PackedSequence& text = ref.concatenated();
  const auto fm = index::FmIndex::build(text, {.bucket_width = 64});
  AlignerOptions options;
  options.inexact.max_diffs = 2;
  util::Xoshiro256 rng(5);

  std::vector<std::vector<Base>> reads;
  const auto planted = [&](std::size_t begin, std::size_t m) {
    return text.slice(begin, begin + m);
  };
  for (int i = 0; i < 40; ++i) {
    const std::size_t m = 40 + rng.bounded(61);
    auto read = planted(rng.bounded(text.size() - m), m);
    switch (i % 4) {
      case 1:
        read = genome::reverse_complement(read);
        break;
      case 2:
        for (int d = 0; d < 1 + i % 3; ++d) {
          auto& b = read[rng.bounded(m)];
          b = static_cast<Base>((static_cast<int>(b) + 1) % 4);
        }
        break;
      case 3:
        for (auto& b : read) b = static_cast<Base>(rng.bounded(4));
        break;
    }
    reads.push_back(std::move(read));
  }
  reads.push_back(planted(1020, 80));                             // repeat
  reads.push_back(genome::reverse_complement(planted(1010, 90)));  // repeat
  reads.push_back(planted(2970, 60));  // across the chr1/chr2 junction
  reads.push_back(planted(4470, 60));  // across the chr2/chr3 junction
  reads.push_back({});

  for (const bool annotated : {true, false}) {
    SCOPED_TRACE(annotated ? "names and qualities" : "bare reads");
    ReadBatchBuilder builder;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      std::string name, qual;
      if (annotated) {
        if (i % 3 == 1) name = "r" + std::to_string(i) + " comment=" +
                               std::to_string(i);
        if (i % 3 == 2) name = "r" + std::to_string(i) + "\tx";
        for (std::size_t j = 0; j < reads[i].size(); ++j) {
          qual.push_back(static_cast<char>('!' + rng.bounded(41)));
        }
      }
      builder.add(reads[i], name, qual);
    }
    const ReadBatch batch = builder.build();
    BatchResult results;
    SoftwareEngine(fm, options).align_batch(batch, results);

    const std::size_t base_index = annotated ? 1000 : 0;
    std::ostringstream rendered;
    SamWriter writer(rendered, text, ref.chromosomes());
    if (annotated) {
      writer.write_chunk(
          BatchResultChunk{&batch, 0, batch.size(), &results, base_index});
    } else {
      writer.write_batch(batch, results);
    }
    std::ostringstream unused;
    SamWriter oracle(unused, text, ref.chromosomes());
    const std::string want = record_path(oracle, batch, results, base_index);
    EXPECT_EQ(rendered.str(), want);
    EXPECT_EQ(writer.records_written(),
              static_cast<std::size_t>(
                  std::count(want.begin(), want.end(), '\n')));
    EXPECT_EQ(writer.junction_artifacts_dropped(),
              oracle.junction_artifacts_dropped());

    // The cases above all occurred.
    EXPECT_GE(writer.junction_artifacts_dropped(), 2U);
    std::set<std::uint16_t> flags;
    std::istringstream lines(want);
    for (std::string line; std::getline(lines, line);) {
      flags.insert(static_cast<std::uint16_t>(std::stoi(split(line)[1])));
    }
    EXPECT_TRUE(flags.count(0) && flags.count(SamRecord::kFlagReverse) &&
                flags.count(SamRecord::kFlagUnmapped));
    EXPECT_TRUE(flags.count(SamRecord::kFlagSecondary) ||
                flags.count(SamRecord::kFlagSecondary |
                            SamRecord::kFlagReverse));
    EXPECT_NE(want.find("\tNM:i:1\n"), std::string::npos);  // inexact
    EXPECT_NE(want.find(annotated ? "read1000\t" : "read0\t"),
              std::string::npos);
    if (annotated) {
      EXPECT_NE(want.find("\nr1\t"), std::string::npos);  // comment cut
      EXPECT_NE(want.find("\nr2\t"), std::string::npos);
    } else {
      EXPECT_NE(want.find("\t*\tNM:i:0\n"), std::string::npos);  // no QUAL
    }
  }
}

// A read with a quality string of the wrong length throws; the records of
// the reads before it still reach the stream, one whole record each.
TEST(SamWriter, QualityMismatchInAChunkWritesTheReadsBefore) {
  const Fixture f;
  ReadBatchBuilder builder;
  for (std::size_t i = 0; i < 5; ++i) {
    const auto read = f.reference.slice(100 * i, 100 * i + 50);
    builder.add(read, "q" + std::to_string(i),
                std::string(i == 3 ? 49 : 50, 'I'));
  }
  const ReadBatch batch = builder.build();
  BatchResult results;
  SoftwareEngine(f.fm, AlignerOptions{}).align_batch(batch, results);

  std::ostringstream out;
  SamWriter writer(out, "chrTest", f.reference);
  EXPECT_THROW(writer.write_batch(batch, results), std::invalid_argument);

  std::ostringstream unused;
  SamWriter oracle(unused, "chrTest", f.reference);
  std::string want;
  for (std::size_t i = 0; i < 3; ++i) {
    for (const auto& rec :
         oracle.make_records(std::string(batch.name(i)),
                             batch.read(i).unpack(), results.result(i),
                             std::string(batch.qualities(i)))) {
      want += rec.to_line() + "\n";
    }
  }
  EXPECT_EQ(out.str(), want);
  EXPECT_NE(want.find("\nq2\t"), std::string::npos);
  EXPECT_EQ(writer.records_written(),
            static_cast<std::size_t>(std::count(want.begin(), want.end(),
                                                '\n')));
}

TEST(EstimateMapq, Heuristic) {
  EXPECT_EQ(estimate_mapq(0, 0), 0);
  EXPECT_EQ(estimate_mapq(1, 0), 60);
  EXPECT_EQ(estimate_mapq(1, 1), 50);
  EXPECT_EQ(estimate_mapq(1, 5), 20);  // floor
  EXPECT_EQ(estimate_mapq(2, 0), 3);
  EXPECT_EQ(estimate_mapq(9, 0), 0);
}

}  // namespace
}  // namespace pim::align
