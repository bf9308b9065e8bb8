// SAM -> VCF variant caller — composes with fastq_to_sam / index_cli as
// separate pipeline stages, UNIX-style:
//
//   ./sam_to_vcf <ref.fasta> <in.sam> <out.vcf> [contig]
//   ./sam_to_vcf                     # self-contained demo
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/align/engine.h"
#include "src/align/sam_writer.h"
#include "src/genome/fasta.h"
#include "src/genome/synthetic_genome.h"
#include "src/readsim/read_simulator.h"
#include "src/util/rng.h"
#include "src/varcall/sam_reader.h"
#include "src/varcall/snv_caller.h"
#include "src/varcall/vcf_writer.h"

namespace {

int run(const std::string& ref_path, const std::string& sam_path,
        const std::string& vcf_path, std::string contig) {
  using namespace pim;
  const auto records = genome::read_fasta_file(ref_path);
  if (records.empty()) {
    std::fprintf(stderr, "no FASTA records in %s\n", ref_path.c_str());
    return 1;
  }
  const auto& reference = records[0].sequence;
  if (contig.empty()) {
    contig = records[0].name.substr(0, records[0].name.find(' '));
  }

  std::ifstream sam(sam_path);
  if (!sam) {
    std::fprintf(stderr, "cannot open %s\n", sam_path.c_str());
    return 1;
  }
  varcall::Pileup pileup(reference.size());
  const auto stats = varcall::pileup_from_sam(sam, contig, pileup);
  std::printf("SAM: %llu records (%llu used, %llu unmapped, %llu secondary, "
              "%llu other contig); mean depth %.1fx\n",
              static_cast<unsigned long long>(stats.records),
              static_cast<unsigned long long>(stats.used),
              static_cast<unsigned long long>(stats.unmapped),
              static_cast<unsigned long long>(stats.secondary),
              static_cast<unsigned long long>(stats.other_reference),
              pileup.mean_depth());

  const auto calls = varcall::call_snvs(pileup, reference);
  std::ofstream vcf(vcf_path);
  varcall::write_vcf_header(vcf, contig, reference.size());
  varcall::write_vcf_records(vcf, contig, calls);
  std::printf("%zu SNV calls -> %s\n", calls.size(), vcf_path.c_str());
  return 0;
}

int demo() {
  using namespace pim;
  std::printf("no arguments: demo (simulate -> align -> SAM -> VCF)\n\n");
  genome::SyntheticGenomeSpec gspec;
  gspec.length = 60000;
  gspec.seed = 91;
  const auto reference = genome::generate_reference(gspec);
  auto donor = reference;
  util::Xoshiro256 rng(92);
  std::size_t planted = 0;
  for (int v = 0; v < 30; ++v) {
    const std::uint64_t pos = 300 + rng.bounded(reference.size() - 600);
    const auto alt = static_cast<genome::Base>(
        (static_cast<int>(reference.at(pos)) + 1) % 4);
    donor.set(pos, alt);
    ++planted;
  }
  genome::write_fasta_file("/tmp/pim_s2v_ref.fasta",
                           {{"demo", reference, 0}});

  readsim::ReadSimSpec rspec;
  rspec.read_length = 100;
  rspec.num_reads = 12000;
  rspec.population_variation_rate = 0.0;
  rspec.sequencing_error_rate = 0.002;
  rspec.seed = 93;
  const auto set = readsim::ReadSimulator(rspec).generate(donor);

  const auto fm = index::FmIndex::build(reference, {.bucket_width = 128});
  align::AlignerOptions options;
  options.inexact.max_diffs = 2;
  const align::SoftwareEngine engine(fm, options);
  align::ReadBatchBuilder builder;
  for (std::size_t i = 0; i < set.reads.size(); ++i) {
    builder.add(set.reads[i].bases, "r" + std::to_string(i));
  }
  const align::ReadBatch batch = builder.build();
  align::BatchResult results;
  engine.align_batch(batch, results);
  std::ofstream sam("/tmp/pim_s2v.sam");
  align::SamWriter writer(sam, "demo", reference);
  writer.write_header();
  writer.write_batch(batch, results);
  sam.close();
  std::printf("planted %zu SNVs; aligned %zu reads -> /tmp/pim_s2v.sam\n",
              planted, set.reads.size());
  return run("/tmp/pim_s2v_ref.fasta", "/tmp/pim_s2v.sam",
             "/tmp/pim_s2v.vcf", "demo");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return demo();
  if (argc < 4) {
    std::fprintf(stderr, "usage: %s <ref.fasta> <in.sam> <out.vcf> [contig]\n",
                 argv[0]);
    return 2;
  }
  return run(argv[1], argv[2], argv[3], argc > 4 ? argv[4] : "");
}
