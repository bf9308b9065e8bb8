// End-to-end aligner tool: FASTA reference + FASTQ reads -> SAM alignments,
// on the streaming pipeline (S39). Every FASTA record is a chromosome: one
// index covers their concatenation, and the SAM carries one @SQ per record
// with per-chromosome RNAME/POS (hits across a junction are dropped and
// counted). On the streaming pipeline a producer thread packs FASTQ records
// into double-buffered ReadBatch generations while the engine aligns the
// previous one, and every completed chunk is written to the SAM file as
// soon as it (and all earlier chunks) finish. Peak memory is two batch
// generations, not the dataset. With shards >= 2 each generation fans out
// across N engine shards (simulated chips) behind ShardedEngine with
// measured-load rebalancing — the SAM path is unchanged because the sharded
// engine streams through the same chunk seam.
//
//   ./fastq_to_sam ref.fasta reads.fastq out.sam [threads] [max_diffs]
//                  [shards] [--metrics=PATH] [--pim-chips=N]
//                  [--save-index=PATH]
//   ./fastq_to_sam --index=PATH reads.fastq out.sam [...]
//
// --metrics=PATH  installs the S40 observability registry end to end and
//                 writes the stage-resolved snapshot (stream.*, sched.*,
//                 shard.*, sam.junction_dropped, search.exact.*, plus
//                 chip.*/fleet.* with --pim-chips) and the fill/align trace
//                 as JSON lines to PATH after the run.
// --pim-chips=N   aligns on a simulated N-chip SOT-MRAM fleet (PimChipFleet)
//                 instead of software shards. Cycle/energy-accurate and
//                 correspondingly slow — use small read counts.
// --save-index=PATH  after building the index from ref.fasta, persist it as
//                 a v2 artifact (S42) so later runs can skip the SA-IS/BWT
//                 pre-computation entirely.
// --index=PATH    load (mmap when possible) a persisted index instead of
//                 building from FASTA; ref.fasta is then omitted. Mutually
//                 exclusive with --save-index (exit 2).
//
// With no positional arguments, runs a self-contained demo: generates a
// synthetic reference and ART-like FASTQ reads (with quality ramp), writes
// them as pim_aligner_demo_* in the temp directory ($TMPDIR, else /tmp),
// aligns with the multithreaded two-stage pipeline, and prints the
// first SAM records plus summary statistics.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/align/sam_writer.h"
#include "src/align/sharded_engine.h"
#include "src/align/streaming_pipeline.h"
#include "src/genome/fasta.h"
#include "src/genome/fastq.h"
#include "src/genome/multi_reference.h"
#include "src/genome/synthetic_genome.h"
#include "src/index/index_io.h"
#include "src/index/mapped_index.h"
#include "src/obs/metrics.h"
#include "src/obs/reporter.h"
#include "src/obs/trace.h"
#include "src/pim/pim_fleet.h"
#include "src/pim/timing_energy.h"
#include "src/readsim/read_simulator.h"

namespace {

int run(const std::string& ref_path, const std::string& fastq_path,
        const std::string& sam_path, std::size_t threads,
        std::uint32_t max_diffs, std::size_t shards,
        const std::string& metrics_path, std::size_t pim_chips,
        const std::string& index_path, const std::string& save_index_path) {
  using namespace pim;

  // The index either comes from a persisted artifact (--index: skip the
  // FASTA -> SA-IS -> BWT pre-computation) or is built from ref.fasta
  // (optionally persisted via --save-index for the next run).
  index::MappedIndex mapped;
  index::FmIndex built;
  genome::MultiReference built_reference;
  const index::FmIndex* fm = nullptr;
  const genome::PackedSequence* reference = nullptr;
  std::vector<genome::Chromosome> chromosomes;

  if (!index_path.empty()) {
    mapped = index::MappedIndex::open(index_path);
    fm = &mapped.index();
    reference = &mapped.reference();
    chromosomes = mapped.chromosomes();
    std::printf("index: %s (%s, %zu bp reference, %zu B resident)\n",
                index_path.c_str(),
                mapped.mapped() ? "mapped" : "stream-loaded",
                reference->size(), fm->memory_footprint().total());
  } else {
    const auto refs = genome::read_fasta_file(ref_path);
    if (refs.empty()) {
      std::fprintf(stderr, "no FASTA records in %s\n", ref_path.c_str());
      return 1;
    }
    // One index over every record, concatenated; SamWriter maps hits back
    // to their chromosome.
    built_reference = genome::MultiReference::from_fasta_records(refs);
    reference = &built_reference.concatenated();
    chromosomes = built_reference.chromosomes();
    std::printf("reference: %zu chromosome(s), %zu bp\n", chromosomes.size(),
                reference->size());
    built = index::FmIndex::build(*reference, {.bucket_width = 128});
    fm = &built;
    std::printf("index built (%zu B resident)\n",
                fm->memory_footprint().total());
    if (!save_index_path.empty()) {
      index::save_index_file(save_index_path, built, chromosomes);
      std::printf("index saved -> %s\n", save_index_path.c_str());
    }
  }

  align::AlignerOptions options;
  options.inexact.max_diffs = max_diffs;

  std::ifstream fastq_in(fastq_path);
  if (!fastq_in) {
    std::fprintf(stderr, "cannot read %s\n", fastq_path.c_str());
    return 1;
  }
  std::ofstream sam_out(sam_path);
  if (!sam_out) {
    std::fprintf(stderr, "cannot write %s\n", sam_path.c_str());
    return 1;
  }
  align::SamWriter writer(sam_out, *reference, std::move(chromosomes));
  writer.write_header();

  // Stream: FASTQ records never all live at once. The producer packs the
  // next generation while the engine aligns this one; chunks hit the SAM
  // file in read order as they complete.
  genome::FastqStreamReader reader(fastq_in);
  align::StreamingOptions sopts;
  sopts.parallel.num_threads = threads;

  // One registry/trace pair spans every stage: the streaming pipeline, the
  // chunked scheduler, the sharded fan-out, and (with --pim-chips) the
  // per-chip hardware tallies all publish into it.
  obs::MetricsRegistry registry;
  obs::TraceLog trace_log(4096);
  const bool observed = !metrics_path.empty();
  if (observed) {
    sopts.metrics = &registry;
    sopts.trace = &trace_log;
    // Surface ring overflow as obs.trace.dropped (S45): a truncated span
    // log should say so, not silently overwrite its oldest events.
    trace_log.install_metrics(registry);
  }
  align::ShardedOptions shard_opts{.rebalance = true};
  if (observed) shard_opts.metrics = &registry;

  align::StreamingStats stats;
  if (pim_chips >= 1) {
    // Simulated SOT-MRAM fleet: each chip owns its platform (op/energy
    // tallies), and the sharded seam streams per-chip completions into the
    // SAM writer exactly like the software path.
    const hw::TimingEnergyModel timing;
    hw::PimChipFleet fleet(*fm, timing, pim_chips, options, {},
                           hw::AddPlacement::kMethodI, shard_opts);
    stats = align::StreamingPipeline(fleet.engine(), sopts).run(reader,
                                                                writer);
    if (observed) fleet.publish_metrics(registry);
    std::printf("PIM fleet of %zu chips:\n", pim_chips);
    for (std::size_t c = 0; c < fleet.num_chips(); ++c) {
      const auto cs = fleet.chip_stats(c);
      std::printf("  chip %zu: %llu LFM calls, %.0f cycles, %.1f nJ\n", c,
                  static_cast<unsigned long long>(cs.lfm_calls),
                  cs.ops.busy_ns * timing.clock_ghz(),
                  cs.ops.energy_pj * 1e-3);
    }
  } else if (shards >= 2) {
    // Multi-chip execution behind the same engine seam: one software engine
    // shard per simulated chip, each generation fanned across chip threads
    // with boundaries rebalanced from the measured wall-time skew.
    std::vector<std::unique_ptr<align::AlignmentEngine>> chips;
    for (std::size_t s = 0; s < shards; ++s) {
      chips.push_back(std::make_unique<align::SoftwareEngine>(*fm, options));
    }
    const align::ShardedEngine engine(std::move(chips), shard_opts);
    stats = align::StreamingPipeline(engine, sopts).run(reader, writer);
    std::printf("sharded across %zu chips (last generation):\n", shards);
    for (const auto& s : engine.shard_stats()) {
      std::printf("  chip %zu: %llu reads, %llu hits, %.1f ms\n", s.shard,
                  static_cast<unsigned long long>(s.reads),
                  static_cast<unsigned long long>(s.hits), s.wall_ms);
    }
  } else {
    const align::SoftwareEngine engine(*fm, options);
    stats = align::StreamingPipeline(engine, sopts).run(reader, writer);
  }

  if (observed) {
    registry.counter("sam.junction_dropped")
        .add(writer.junction_artifacts_dropped());
    registry.counter("search.exact.searches").add(stats.engine.exact_searches);
    registry.counter("search.exact.verified").add(stats.engine.exact_verified);
    std::ofstream metrics_out(metrics_path);
    if (!metrics_out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    obs::write_json_lines(registry.scrape(), metrics_out);
    obs::write_json_lines(trace_log.snapshot(), metrics_out);
    std::printf("metrics -> %s\n", metrics_path.c_str());
  }
  const auto& es = stats.engine;

  std::printf("\naligned %llu/%llu reads (%llu exact, %llu inexact, "
              "%llu unaligned) in %.1f ms; %llu generations, %llu chunks, "
              "peak %.2f MB batch arenas; %zu SAM records (%zu junction "
              "artefacts dropped) -> %s\n",
              static_cast<unsigned long long>(es.reads_exact +
                                              es.reads_inexact),
              static_cast<unsigned long long>(es.reads_total),
              static_cast<unsigned long long>(es.reads_exact),
              static_cast<unsigned long long>(es.reads_inexact),
              static_cast<unsigned long long>(es.reads_unaligned),
              stats.wall_ms,
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.chunks),
              static_cast<double>(stats.peak_batch_bytes) / (1024.0 * 1024.0),
              writer.records_written(), writer.junction_artifacts_dropped(),
              sam_path.c_str());
  return 0;
}

/// The demo writes its inputs and outputs as pim_aligner_demo_* in the
/// temp directory.
int run_demo(const std::string& metrics_path, std::size_t pim_chips) {
  using namespace pim;
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  std::printf("no input files: running the self-contained demo in %s\n\n",
              dir.string().c_str());
  const auto path = [&](const char* name) { return (dir / name).string(); };

  // Generate reference + reads and write them as real files, so the demo
  // exercises the same I/O path as the CLI mode.
  genome::SyntheticGenomeSpec gspec;
  gspec.length = 120000;
  gspec.seed = 77;
  const auto reference = genome::generate_reference(gspec);
  genome::write_fasta_file(path("pim_aligner_demo_ref.fasta"),
                           {{"demo_ref synthetic", reference, 0}});

  readsim::ReadSimSpec rspec;
  rspec.read_length = 100;
  rspec.num_reads = 400;
  rspec.population_variation_rate = 0.001;
  rspec.sequencing_error_rate = 0.002;
  rspec.error_ramp = 1.0;       // Illumina-like 3' degradation
  rspec.emit_qualities = true;  // real FASTQ qualities
  rspec.seed = 99;
  const auto set = readsim::ReadSimulator(rspec).generate(reference);
  genome::write_fastq_file(path("pim_aligner_demo_reads.fastq"),
                           readsim::to_fastq(set));

  const int rc = run(path("pim_aligner_demo_ref.fasta"),
                     path("pim_aligner_demo_reads.fastq"),
                     path("pim_aligner_demo.sam"), 4, 2, /*shards=*/2,
                     metrics_path.empty()
                         ? path("pim_aligner_demo_metrics.jsonl")
                         : metrics_path,
                     pim_chips, /*index_path=*/"", /*save_index_path=*/"");
  if (rc != 0) return rc;

  std::printf("\nfirst SAM lines:\n");
  std::ifstream sam(path("pim_aligner_demo.sam"));
  std::string line;
  for (int i = 0; i < 8 && std::getline(sam, line); ++i) {
    std::printf("  %s\n", line.c_str());
  }
  return 0;
}

}  // namespace

/// Parse a plain decimal count into `out`: digits only (no sign, no
/// whitespace), at most `max`. Returns false on anything else.
bool parse_count(const std::string& text, std::uint64_t max,
                 std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char ch : text) {
    if (ch < '0' || ch > '9') return false;
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (value > (max - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

void print_usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s ref.fasta reads.fastq out.sam [threads] "
               "[max_diffs] [shards] [--metrics=PATH] [--pim-chips=N] "
               "[--save-index=PATH]\n"
               "       %s --index=PATH reads.fastq out.sam [threads] "
               "[max_diffs] [shards] [--metrics=PATH] [--pim-chips=N]\n",
               prog, prog);
}

int main(int argc, char** argv) {
  // Flags may appear anywhere; everything else is positional. An
  // unrecognized --flag is an error, not a silently ignored positional —
  // a typo like --metrcs=x must not run the demo with metrics off.
  std::string metrics_path;
  std::string index_path;
  std::string save_index_path;
  std::uint64_t pim_chips = 0;
  std::vector<std::string> positional;
  // Threads, shards and chips each start a thread or a simulated chip per
  // unit: cap them far below anything that would exhaust the host.
  constexpr std::uint64_t kMaxCount = 4096;
  const auto bad_value = [&](const std::string& value) {
    std::fprintf(stderr, "%s: bad numeric argument '%s'\n", argv[0],
                 value.c_str());
    print_usage(argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg.rfind("--pim-chips=", 0) == 0) {
      if (!parse_count(arg.substr(12), kMaxCount, pim_chips)) {
        return bad_value(arg);
      }
    } else if (arg.rfind("--index=", 0) == 0) {
      index_path = arg.substr(8);
    } else if (arg.rfind("--save-index=", 0) == 0) {
      save_index_path = arg.substr(13);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      print_usage(argv[0]);
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (!index_path.empty() && !save_index_path.empty()) {
    // Contradictory: --index promises no build, --save-index requires one.
    std::fprintf(stderr, "%s: --index and --save-index are mutually "
                         "exclusive\n", argv[0]);
    print_usage(argv[0]);
    return 2;
  }
  if (positional.empty()) return run_demo(metrics_path, pim_chips);
  if (!index_path.empty()) {
    // ref.fasta is replaced by the artifact: positionals shift left.
    if (positional.size() < 2) {
      print_usage(argv[0]);
      return 2;
    }
    positional.insert(positional.begin(), "");
  }
  if (positional.size() < 3) {
    print_usage(argv[0]);
    return 2;
  }
  std::uint64_t threads = 0;
  std::uint64_t max_diffs = 2;
  std::uint64_t shards = 1;
  if (positional.size() > 3 &&
      !parse_count(positional[3], kMaxCount, threads)) {
    return bad_value(positional[3]);
  }
  if (positional.size() > 4 &&
      !parse_count(positional[4], UINT32_MAX, max_diffs)) {
    return bad_value(positional[4]);
  }
  if (positional.size() > 5 &&
      !parse_count(positional[5], kMaxCount, shards)) {
    return bad_value(positional[5]);
  }
  try {
    return run(positional[0], positional[1], positional[2], threads,
               static_cast<std::uint32_t>(max_diffs), shards, metrics_path,
               pim_chips, index_path, save_index_path);
  } catch (const std::exception& e) {
    // Unreadable inputs (missing FASTA, malformed FASTQ, bad index
    // artifact) are user errors, not crashes.
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}
