// Index-once, align-many CLI — the production workflow around the
// serialized FM-index (format v2, S42).
//
//   ./index_cli build <ref.fasta> <index.pim>         # pre-computation
//   ./index_cli info  <index.pim>                     # headers only
//   ./index_cli verify <index.pim>                    # full checksum pass
//   ./index_cli align <index.pim> <reads.fastq> <out.sam>
//   ./index_cli                                        # self-contained demo
//
// `build` runs the paper's Fig. 2 pre-computation (SA-IS, BWT, Marker
// Table, SA) over the concatenation of *all* FASTA records and persists a
// v2 artifact including the per-chromosome table; `info` inspects the
// section layout without loading payloads; `verify` proves integrity by
// running both loaders (stream + mmap) over every checksummed section;
// `align` mmaps the artifact (zero-copy, no rebuild), runs the
// multithreaded two-stage pipeline and writes SAM through the stored
// chromosome table (one @SQ per FASTA record).
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/align/parallel_aligner.h"
#include "src/align/sam_writer.h"
#include "src/genome/fasta.h"
#include "src/genome/fastq.h"
#include "src/genome/multi_reference.h"
#include "src/genome/synthetic_genome.h"
#include "src/index/index_io.h"
#include "src/index/mapped_index.h"
#include "src/readsim/read_simulator.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int cmd_build(const std::string& fasta_path, const std::string& index_path) {
  using namespace pim;
  const auto records = genome::read_fasta_file(fasta_path);
  if (records.empty()) {
    std::fprintf(stderr, "no FASTA records in %s\n", fasta_path.c_str());
    return 1;
  }
  const auto multi = genome::MultiReference::from_fasta_records(records);
  std::printf("building index over %zu chromosome(s), %llu bp total...\n",
              multi.chromosomes().size(),
              static_cast<unsigned long long>(multi.total_length()));
  const auto t0 = std::chrono::steady_clock::now();
  const auto fm =
      index::FmIndex::build(multi.concatenated(), {.bucket_width = 128});
  std::printf("  built in %.2f s\n", seconds_since(t0));
  index::save_index_file(index_path, fm, multi.chromosomes());
  std::ifstream probe(index_path, std::ios::binary | std::ios::ate);
  std::printf("  saved %s (%lld bytes, format v%u)\n", index_path.c_str(),
              static_cast<long long>(probe.tellg()), index::kIndexVersion);
  return 0;
}

int cmd_info(const std::string& index_path) {
  using namespace pim;
  const auto info = index::inspect_index_file(index_path);
  std::printf("index: %s\n", index_path.c_str());
  std::printf("  format: v%u, %llu bytes\n", info.version,
              static_cast<unsigned long long>(info.file_bytes));
  std::printf("  reference: %llu bp, %zu chromosome(s)\n",
              static_cast<unsigned long long>(info.reference_bases),
              info.num_chromosomes);
  std::printf("  bucket width d: %u\n", info.bucket_width);
  for (const auto& section : info.sections) {
    std::printf("  section %-12s offset %8llu  %10llu B  fnv1a %016llx\n",
                section.name.c_str(),
                static_cast<unsigned long long>(section.offset),
                static_cast<unsigned long long>(section.payload_bytes),
                static_cast<unsigned long long>(section.checksum));
  }
  return 0;
}

int cmd_verify(const std::string& index_path) {
  using namespace pim;
  // Both loaders exercise every stored checksum: the stream loader while
  // reading sections into owned buffers, the mapped loader over the mmap
  // region. Agreement of the two proves the artifact and the zero-copy
  // assembly path.
  const auto t0 = std::chrono::steady_clock::now();
  const auto loaded = index::load_index_file(index_path);
  const double stream_s = seconds_since(t0);
  const auto t1 = std::chrono::steady_clock::now();
  const auto mapped = index::MappedIndex::open(index_path);
  const double map_s = seconds_since(t1);
  if (mapped.index().num_rows() != loaded.index.num_rows() ||
      !(mapped.reference() == loaded.reference()) ||
      mapped.chromosomes().size() != loaded.chromosomes.size()) {
    std::fprintf(stderr, "FAIL: stream and mapped loads disagree\n");
    return 1;
  }
  std::printf("OK: %s (%llu bp, %zu chromosome(s); stream %.3f s, "
              "%s %.3f s)\n",
              index_path.c_str(),
              static_cast<unsigned long long>(loaded.index.reference_size()),
              loaded.chromosomes.size(), stream_s,
              mapped.mapped() ? "mmap" : "stream-fallback", map_s);
  return 0;
}

int cmd_align(const std::string& index_path, const std::string& fastq_path,
              const std::string& sam_path) {
  using namespace pim;
  auto t0 = std::chrono::steady_clock::now();
  const auto mapped = index::MappedIndex::open(index_path);
  std::printf("index %s in %.3f s (no SA-IS rebuild)\n",
              mapped.mapped() ? "mapped" : "stream-loaded",
              seconds_since(t0));

  const align::ReadBatch batch =
      align::ReadBatch::from_fastq(genome::read_fastq_file(fastq_path));

  align::AlignerOptions options;
  options.inexact.max_diffs = 2;
  const align::SoftwareEngine engine(mapped.index(), options);
  align::BatchResult results;
  t0 = std::chrono::steady_clock::now();
  align::align_batch_parallel(engine, batch, results);
  const double align_s = seconds_since(t0);
  const align::EngineStats& stats = results.stats();

  std::ofstream out(sam_path);
  align::SamWriter writer(out, mapped.reference(), mapped.chromosomes());
  writer.write_header();
  writer.write_batch(batch, results);
  std::printf("aligned %llu reads in %.2f s (%.0f reads/s): "
              "%llu exact, %llu inexact, %llu unaligned; %zu junction "
              "artefacts dropped -> %s\n",
              static_cast<unsigned long long>(stats.reads_total), align_s,
              static_cast<double>(stats.reads_total) / align_s,
              static_cast<unsigned long long>(stats.reads_exact),
              static_cast<unsigned long long>(stats.reads_inexact),
              static_cast<unsigned long long>(stats.reads_unaligned),
              writer.junction_artifacts_dropped(), sam_path.c_str());
  return 0;
}

/// The demo writes its inputs and outputs as pim_cli_* in the temp
/// directory ($TMPDIR, else /tmp).
int demo() {
  using namespace pim;
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  std::printf("running the build -> info -> verify -> align demo in %s\n\n",
              dir.string().c_str());
  const auto path = [&](const char* name) { return (dir / name).string(); };
  genome::SyntheticGenomeSpec gspec;
  gspec.length = 80000;
  gspec.seed = 31;
  const auto reference = genome::generate_reference(gspec);
  genome::write_fasta_file(path("pim_cli_ref.fasta"), {{"demo", reference, 0}});
  readsim::ReadSimSpec rspec;
  rspec.read_length = 80;
  rspec.num_reads = 300;
  rspec.emit_qualities = true;
  rspec.seed = 32;
  const auto set = readsim::ReadSimulator(rspec).generate(reference);
  genome::write_fastq_file(path("pim_cli_reads.fastq"), readsim::to_fastq(set));

  int rc = cmd_build(path("pim_cli_ref.fasta"), path("pim_cli.index"));
  if (rc != 0) return rc;
  rc = cmd_info(path("pim_cli.index"));
  if (rc != 0) return rc;
  rc = cmd_verify(path("pim_cli.index"));
  if (rc != 0) return rc;
  return cmd_align(path("pim_cli.index"), path("pim_cli_reads.fastq"),
                   path("pim_cli.sam"));
}

int run(int argc, char** argv) {
  if (argc == 1) return demo();
  const std::string cmd = argv[1];
  if (cmd == "build" && argc == 4) return cmd_build(argv[2], argv[3]);
  if (cmd == "info" && argc == 3) return cmd_info(argv[2]);
  if (cmd == "verify" && argc == 3) return cmd_verify(argv[2]);
  if (cmd == "align" && argc == 5) {
    return cmd_align(argv[2], argv[3], argv[4]);
  }
  std::fprintf(stderr,
               "usage:\n  %s build <ref.fasta> <index>\n  %s info <index>\n"
               "  %s verify <index>\n"
               "  %s align <index> <reads.fastq> <out.sam>\n",
               argv[0], argv[0], argv[0], argv[0]);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A bad input (unreadable FASTA/FASTQ, corrupt or truncated artifact) is
  // a reported failure with exit 1, in every command.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }
}
