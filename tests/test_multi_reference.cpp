#include "src/genome/multi_reference.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/genome/synthetic_genome.h"

namespace pim::genome {
namespace {

MultiReference three_chromosomes() {
  std::vector<std::pair<std::string, PackedSequence>> parts;
  parts.emplace_back("chr1", generate_uniform(1000, 1));
  parts.emplace_back("chr2", generate_uniform(500, 2));
  parts.emplace_back("chr3", generate_uniform(1500, 3));
  return MultiReference::from_parts(std::move(parts));
}

TEST(MultiReference, ConcatenationLayout) {
  const auto ref = three_chromosomes();
  EXPECT_EQ(ref.total_length(), 3000U);
  ASSERT_EQ(ref.chromosomes().size(), 3U);
  EXPECT_EQ(ref.chromosomes()[0].offset, 0U);
  EXPECT_EQ(ref.chromosomes()[1].offset, 1000U);
  EXPECT_EQ(ref.chromosomes()[2].offset, 1500U);
  EXPECT_EQ(ref.chromosomes()[2].length, 1500U);
}

TEST(MultiReference, ConcatenationContentMatchesParts) {
  const auto chr2 = generate_uniform(500, 2);
  const auto ref = three_chromosomes();
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(ref.concatenated().at(1000 + i), chr2.at(i));
  }
}

TEST(MultiReference, LocateMapsBoundariesCorrectly) {
  const auto ref = three_chromosomes();
  const auto& table = ref.chromosomes();
  EXPECT_EQ(locate(table, 0), (ChromosomeLocation{0, 0}));
  EXPECT_EQ(locate(table, 999), (ChromosomeLocation{0, 999}));
  EXPECT_EQ(locate(table, 1000), (ChromosomeLocation{1, 0}));
  EXPECT_EQ(locate(table, 1499), (ChromosomeLocation{1, 499}));
  EXPECT_EQ(locate(table, 1500), (ChromosomeLocation{2, 0}));
  EXPECT_EQ(locate(table, 2999), (ChromosomeLocation{2, 1499}));
  EXPECT_FALSE(locate(table, 3000).has_value());
  EXPECT_FALSE(locate({}, 0).has_value());
}

/// SamWriter's junction rule over locate: does [global, global + length)
/// run past the end of the chromosome holding `global`?
bool runs_past_chromosome(const MultiReference& ref, std::uint64_t global,
                          std::uint64_t length) {
  const auto loc = locate(ref.chromosomes(), global);
  return !loc ||
         loc->offset + length > ref.chromosomes()[loc->chromosome].length;
}

TEST(MultiReference, SpansBoundary) {
  const auto ref = three_chromosomes();
  EXPECT_FALSE(runs_past_chromosome(ref, 0, 1000));
  EXPECT_TRUE(runs_past_chromosome(ref, 999, 2));
  EXPECT_FALSE(runs_past_chromosome(ref, 999, 1));
  EXPECT_TRUE(runs_past_chromosome(ref, 1400, 200));
  EXPECT_FALSE(runs_past_chromosome(ref, 1500, 1500));
  EXPECT_TRUE(runs_past_chromosome(ref, 2999, 2));  // off the end
  EXPECT_TRUE(runs_past_chromosome(ref, 3000, 1));  // past the end
  EXPECT_FALSE(runs_past_chromosome(ref, 100, 0));
}

TEST(MultiReference, LocateSkipsEmptyChromosomes) {
  const std::vector<Chromosome> table = {
      {"a", 0, 10}, {"empty", 10, 0}, {"b", 10, 5}};
  EXPECT_EQ(locate(table, 9), (ChromosomeLocation{0, 9}));
  EXPECT_EQ(locate(table, 10), (ChromosomeLocation{2, 0}));
}

TEST(MultiReference, ValidateRequiresATiling) {
  const auto ref = three_chromosomes();
  EXPECT_NO_THROW(validate_chromosomes(ref.chromosomes(), 3000));
  EXPECT_THROW(validate_chromosomes(ref.chromosomes(), 3001),
               std::invalid_argument);
  // Lengths sum to n but the offsets overlap: not a tiling.
  const std::vector<Chromosome> overlapping = {{"chr1", 0, 3000},
                                               {"chr2", 2000, 2000}};
  EXPECT_THROW(validate_chromosomes(overlapping, 5000),
               std::invalid_argument);
  const std::vector<Chromosome> gap = {{"chr1", 0, 1000},
                                       {"chr2", 1500, 3500}};
  EXPECT_THROW(validate_chromosomes(gap, 5000), std::invalid_argument);
  // Contiguous offsets whose lengths sum to n only modulo 2^64.
  const std::vector<Chromosome> wrapping = {
      {"chr1", 0, 6000}, {"chr2", 6000, ~std::uint64_t{0} - 999}};
  EXPECT_THROW(validate_chromosomes(wrapping, 5000), std::invalid_argument);
  EXPECT_THROW(validate_chromosomes({}, 5000), std::invalid_argument);
}

TEST(MultiReference, FromFastaTruncatesNames) {
  std::vector<FastaRecord> records;
  records.push_back({"chr1 homo sapiens", PackedSequence("ACGT"), 0});
  records.push_back({"chr2", PackedSequence("TTTT"), 0});
  const auto ref = MultiReference::from_fasta_records(records);
  EXPECT_EQ(ref.chromosomes()[0].name, "chr1");
  EXPECT_EQ(ref.chromosomes()[1].name, "chr2");
}

}  // namespace
}  // namespace pim::genome
