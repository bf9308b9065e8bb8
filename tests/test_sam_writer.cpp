#include "src/align/sam_writer.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/genome/fastq.h"
#include "src/genome/synthetic_genome.h"

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

TEST(SamWriter, ProperPairRecords) {
  const Fixture f;
  PairedOptions popt;
  popt.single.inexact.max_diffs = 2;
  popt.insert_mean = 300;
  popt.insert_sd = 30;
  const PairedAligner paired(f.fm, popt);
  const auto r1 = f.reference.slice(1000, 1100);
  const auto r2 = genome::reverse_complement(f.reference.slice(1200, 1300));
  const auto result = paired.align_pair(r1, r2);
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
  const auto result = paired.align_pair(r1, junk);
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
// MAPQ fixed. Regenerate the golden after an intended format change by
// copying /tmp/pim_paired_end_actual.sam (dumped on mismatch) over
// tests/golden/paired_end.sam and reviewing the diff.
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
  std::ifstream golden(std::string(PIMALIGNER_SOURCE_DIR) +
                       "/tests/golden/paired_end.sam");
  ASSERT_TRUE(golden.good()) << "missing tests/golden/paired_end.sam";
  std::stringstream want;
  want << golden.rdbuf();
  if (out.str() != want.str()) {
    std::ofstream dump("/tmp/pim_paired_end_actual.sam");
    dump << out.str();
  }
  EXPECT_EQ(out.str(), want.str())
      << "actual output dumped to /tmp/pim_paired_end_actual.sam";
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
