#include "src/genome/multi_reference.h"

#include <algorithm>
#include <stdexcept>

namespace pim::genome {

void validate_chromosomes(std::span<const Chromosome> table,
                          std::uint64_t reference_length) {
  const auto not_tiling = [] {
    return std::invalid_argument(
        "chromosome lengths do not tile the reference");
  };
  std::uint64_t expected_offset = 0;
  for (const auto& chrom : table) {
    if (chrom.offset != expected_offset) {
      throw std::invalid_argument("chromosome offsets not contiguous");
    }
    // Compared against the room left, so a stored length cannot wrap the
    // running offset back onto the reference length.
    if (chrom.length > reference_length - expected_offset) throw not_tiling();
    expected_offset += chrom.length;
  }
  if (expected_offset != reference_length) throw not_tiling();
}

std::optional<ChromosomeLocation> locate(std::span<const Chromosome> table,
                                         std::uint64_t global) {
  if (table.empty() || global >= table.back().offset + table.back().length) {
    return std::nullopt;
  }
  // Binary search the last chromosome with offset <= global.
  const auto it = std::upper_bound(
      table.begin(), table.end(), global,
      [](std::uint64_t pos, const Chromosome& c) { return pos < c.offset; });
  const auto idx = static_cast<std::size_t>(it - table.begin()) - 1;
  return ChromosomeLocation{idx, global - table[idx].offset};
}

MultiReference MultiReference::from_parts(
    std::vector<std::pair<std::string, PackedSequence>> parts) {
  MultiReference ref;
  for (auto& [name, seq] : parts) {
    Chromosome chrom;
    chrom.name = std::move(name);
    chrom.offset = ref.concatenated_.size();
    chrom.length = seq.size();
    for (std::size_t i = 0; i < seq.size(); ++i) {
      ref.concatenated_.push_back(seq.at(i));
    }
    ref.chromosomes_.push_back(std::move(chrom));
  }
  return ref;
}

MultiReference MultiReference::from_fasta_records(
    const std::vector<FastaRecord>& records) {
  std::vector<std::pair<std::string, PackedSequence>> parts;
  parts.reserve(records.size());
  for (const auto& rec : records) {
    // SAM reference names stop at the first whitespace.
    const auto cut = rec.name.find_first_of(" \t");
    parts.emplace_back(rec.name.substr(0, cut), rec.sequence);
  }
  return from_parts(std::move(parts));
}

}  // namespace pim::genome
