// Variant-calling mini-pipeline — the application the paper's introduction
// motivates ("genetic variants detection ... more accurate disease
// diagnostics"), end to end on this library:
//
//   reference -> donor genome with planted SNVs -> ART-like reads
//   -> two-stage alignment -> pileup -> SNV calls -> precision/recall
//
// The VCF goes to pim_aligner_demo.vcf in the temp directory ($TMPDIR, else
// /tmp).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/align/engine.h"
#include "src/genome/synthetic_genome.h"
#include "src/readsim/read_simulator.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/varcall/snv_caller.h"
#include "src/varcall/vcf_writer.h"

int main() {
  using namespace pim;
  using util::TextTable;
  const std::string vcf_path =
      (std::filesystem::temp_directory_path() / "pim_aligner_demo.vcf")
          .string();

  // 1. Reference and donor.
  genome::SyntheticGenomeSpec gspec;
  gspec.length = 200000;
  gspec.seed = 61;
  const auto reference = genome::generate_reference(gspec);
  auto donor = reference;
  util::Xoshiro256 rng(62);
  std::vector<std::pair<std::uint64_t, genome::Base>> truth;
  for (int v = 0; v < 120; ++v) {
    const std::uint64_t pos = 500 + rng.bounded(reference.size() - 1000);
    const auto ref_base = reference.at(pos);
    const auto alt = static_cast<genome::Base>(
        (static_cast<int>(ref_base) + 1 + static_cast<int>(rng.bounded(3))) %
        4);
    if (alt == ref_base) continue;
    donor.set(pos, alt);
    truth.emplace_back(pos, alt);
  }
  std::printf("reference: %zu bp; donor carries %zu planted SNVs\n",
              reference.size(), truth.size());

  // 2. Sequencing: ~25x coverage at the paper's error rate.
  readsim::ReadSimSpec rspec;
  rspec.read_length = 100;
  rspec.num_reads = 50000;
  rspec.population_variation_rate = 0.0;
  rspec.sequencing_error_rate = 0.002;
  rspec.seed = 63;
  const auto set = readsim::ReadSimulator(rspec).generate(donor);
  std::printf("reads: %zu x %u bp (~%.0fx coverage), 0.2%% error\n",
              set.reads.size(), rspec.read_length,
              static_cast<double>(set.reads.size()) * rspec.read_length /
                  static_cast<double>(reference.size()));

  // 3. Align to the reference (the donor's SNVs surface as mismatches).
  const auto fm = index::FmIndex::build(reference, {.bucket_width = 128});
  align::AlignerOptions options;
  options.inexact.max_diffs = 2;
  options.max_hits = 4;
  const align::SoftwareEngine engine(fm, options);
  align::ReadBatchBuilder builder;
  for (const auto& read : set.reads) builder.add(read.bases);
  align::BatchResult results;
  engine.align_batch(builder.build(), results);
  const align::EngineStats& stats = results.stats();

  varcall::Pileup pileup(reference.size());
  for (std::size_t i = 0; i < set.reads.size(); ++i) {
    if (!results.aligned(i)) continue;
    const auto& read = set.reads[i];
    const auto best = *results.best(i);
    varcall::AlignedRead aligned;
    aligned.position = best.position;
    aligned.bases = best.strand == align::Strand::kForward
                        ? read.bases
                        : genome::reverse_complement(read.bases);
    pileup.add(aligned);
  }
  std::printf("aligned %llu/%llu reads; pileup mean depth %.1fx\n",
              static_cast<unsigned long long>(stats.reads_total -
                                              stats.reads_unaligned),
              static_cast<unsigned long long>(stats.reads_total),
              pileup.mean_depth());

  // 4. Call and score.
  const auto calls = varcall::call_snvs(pileup, reference);
  const auto accuracy = varcall::score_calls(calls, truth);
  TextTable out({"metric", "value"});
  out.add_row({"calls made", std::to_string(calls.size())});
  out.add_row({"true positives", std::to_string(accuracy.true_positives)});
  out.add_row({"false positives", std::to_string(accuracy.false_positives)});
  out.add_row({"false negatives", std::to_string(accuracy.false_negatives)});
  out.add_row({"precision", TextTable::num(accuracy.precision() * 100.0) + " %"});
  out.add_row({"recall", TextTable::num(accuracy.recall() * 100.0) + " %"});
  std::printf("\n%s", out.render().c_str());

  // 5. Emit VCF.
  std::ofstream vcf(vcf_path);
  varcall::write_vcf_header(vcf, "demo_ref", reference.size());
  varcall::write_vcf_records(vcf, "demo_ref", calls);
  std::printf("\nwrote %zu VCF records -> %s\n", calls.size(),
              vcf_path.c_str());

  std::printf("\nfirst calls:\n");
  std::size_t shown = 0;
  for (const auto& call : calls) {
    std::printf("  pos %llu  %c -> %c  depth %u  alt %u (%.0f%%)\n",
                static_cast<unsigned long long>(call.position),
                genome::to_char(call.ref_base), genome::to_char(call.alt_base),
                call.depth, call.alt_count, call.alt_fraction * 100.0);
    if (++shown == 5) break;
  }
  return 0;
}
