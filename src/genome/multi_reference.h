// Multi-chromosome references.
//
// The human reference is 24 chromosomes; a single FM-index over their
// concatenation is how production aligners (and the paper's 3.2 Gbp "the
// reference genome") handle it. MultiReference owns the concatenation and
// its chromosome table; the free functions below are the one coordinate
// map every consumer (index save/load, SamWriter) shares. The engines never
// see chromosomes: SamWriter maps their concatenated hit positions back to
// (chromosome, offset) and drops records that would run past a junction.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/genome/fasta.h"
#include "src/genome/packed_sequence.h"

namespace pim::genome {

struct Chromosome {
  std::string name;
  std::uint64_t offset = 0;  ///< Start in the concatenation.
  std::uint64_t length = 0;
};

struct ChromosomeLocation {
  std::size_t chromosome = 0;  ///< Index into the chromosome table.
  std::uint64_t offset = 0;    ///< 0-based position within it.
  bool operator==(const ChromosomeLocation&) const = default;
};

/// Throw std::invalid_argument unless `table` tiles [0, reference_length):
/// offsets contiguous from 0, lengths summing to reference_length.
void validate_chromosomes(std::span<const Chromosome> table,
                          std::uint64_t reference_length);

/// Map a concatenated position to its chromosome in a tiling `table`;
/// nullopt past the last chromosome's end.
std::optional<ChromosomeLocation> locate(std::span<const Chromosome> table,
                                         std::uint64_t global);

class MultiReference {
 public:
  MultiReference() = default;

  static MultiReference from_parts(
      std::vector<std::pair<std::string, PackedSequence>> parts);
  static MultiReference from_fasta_records(
      const std::vector<FastaRecord>& records);

  const PackedSequence& concatenated() const { return concatenated_; }
  const std::vector<Chromosome>& chromosomes() const { return chromosomes_; }
  std::uint64_t total_length() const { return concatenated_.size(); }

 private:
  PackedSequence concatenated_;
  std::vector<Chromosome> chromosomes_;
};

}  // namespace pim::genome
