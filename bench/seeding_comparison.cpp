// Seeding-substrate comparison — FM-index (AligneR/PIM-Aligner family) vs
// k-mer hash table (BLASTN/RADAR family).
//
// The paper's related work splits the non-DP accelerators along exactly
// this line: RADAR maps BLASTN's k-mer seeding onto ReRAM, AligneR and
// PIM-Aligner map FM-index search. Both substrates drive the same
// seed-and-extend core here, so the comparison isolates the data
// structure: memory footprint (the k-mer table's 4^k directory + one entry
// per position vs the 2-bit BWT + markers), query work (one hash probe vs
// k LFM steps), and identical final alignments.
#include <chrono>
#include <cstdio>

#include "src/align/kmer_index.h"
#include "src/align/seed_extend.h"
#include "src/genome/synthetic_genome.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  using pim::util::TextTable;

  pim::genome::SyntheticGenomeSpec spec;
  spec.length = 1 << 20;
  spec.seed = 71;
  const auto reference = pim::genome::generate_reference(spec);

  auto t0 = std::chrono::steady_clock::now();
  const auto fm = pim::index::FmIndex::build(reference, {.bucket_width = 128});
  const double fm_build_ms = ms_since(t0);
  t0 = std::chrono::steady_clock::now();
  const auto kmer = pim::align::KmerIndex::build(reference, 12);
  const double kmer_build_ms = ms_since(t0);

  const auto fp = fm.memory_footprint();

  std::printf("=== Seeding substrates on a %zu bp reference ===\n\n",
              reference.size());
  TextTable idx({"substrate", "build (ms)", "memory (bytes)",
                 "bytes/reference bp", "seed length"});
  idx.add_row({"FM-index (BWT+MT, AligneR-family)",
               TextTable::num(fm_build_ms),
               std::to_string(fp.bwt_bytes + fp.marker_bytes),
               TextTable::num(static_cast<double>(fp.bwt_bytes +
                                                  fp.marker_bytes) /
                              static_cast<double>(reference.size())),
               "any"});
  idx.add_row({"k-mer table (BLASTN/RADAR-family)",
               TextTable::num(kmer_build_ms),
               std::to_string(kmer.memory_bytes()),
               TextTable::num(static_cast<double>(kmer.memory_bytes()) /
                              static_cast<double>(reference.size())),
               "fixed k=12"});
  std::printf("%s", idx.render().c_str());

  // Same reads through both substrates.
  pim::util::Xoshiro256 rng(73);
  pim::align::SeedExtendOptions opt;
  opt.seed_length = 12;
  constexpr int kReads = 60;
  double fm_ms = 0.0, kmer_ms = 0.0;
  std::size_t agree = 0, fm_found = 0;
  for (int r = 0; r < kReads; ++r) {
    const std::size_t start = rng.bounded(reference.size() - 500);
    auto read = reference.slice(start, start + 500);
    for (int m = 0; m < 2; ++m) {
      read[rng.bounded(read.size())] =
          static_cast<pim::genome::Base>(rng.bounded(4));
    }
    t0 = std::chrono::steady_clock::now();
    const auto via_fm = pim::align::seed_extend_align(fm, read, opt);
    fm_ms += ms_since(t0);
    t0 = std::chrono::steady_clock::now();
    const auto via_kmer =
        pim::align::seed_extend_core(kmer, reference, read, opt);
    kmer_ms += ms_since(t0);
    if (via_fm.found()) ++fm_found;
    if (via_fm.found() == via_kmer.found() &&
        (!via_fm.found() ||
         via_fm.hits[0].ref_begin == via_kmer.hits[0].ref_begin)) {
      ++agree;
    }
  }
  std::printf("\nalignment agreement over %d reads: %zu/%d identical "
              "(%zu found)\n", kReads, agree, kReads, fm_found);
  TextTable q({"substrate", "ms/read (host sim)"});
  q.add_row({"FM-index seeding", TextTable::num(fm_ms / kReads)});
  q.add_row({"k-mer seeding", TextTable::num(kmer_ms / kReads)});
  std::printf("%s", q.render().c_str());

  std::printf("\ntakeaways: identical alignments from both substrates; the "
              "k-mer table answers a seed in one probe\nbut costs %.1fx the "
              "FM-index's memory at this scale and fixes k at build time — "
              "on PIM the FM-index\nside additionally keeps all seeding "
              "work inside the 2-bit sub-arrays (the AligneR/PIM-Aligner "
              "bet\nagainst RADAR's).\n",
              static_cast<double>(kmer.memory_bytes()) /
                  static_cast<double>(fp.bwt_bytes + fp.marker_bytes));
  return 0;
}
