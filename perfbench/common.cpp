#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bench.h"
#include "src/align/parallel_aligner.h"
#include "src/genome/synthetic_genome.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Metric families.

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"reads_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"peak_rss_mb", "MB"},
      {"mapped_correct_frac", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"index.build_ms", "ms"},
      {"genome.fastq.records", "count"},
      {"genome.fastq.busy_ms", "ms"},
      {"align.pack.busy_ms", "ms"},
      {"align.exact.calls", "count"},
      {"align.exact.busy_ms", "ms"},
      {"align.exact.found_ratio", "ratio"},
      {"index.locate.rows", "count"},
      {"index.locate.busy_ms", "ms"},
      {"align.darray.calls", "count"},
      {"align.darray.busy_ms", "ms"},
      {"align.inexact.calls", "count"},
      {"align.inexact.busy_ms", "ms"},
      {"align.inexact.states", "count"},
      {"align.inexact.truncated", "count"},
      {"align.inexact.found_ratio", "ratio"},
      {"align.read.self_ms", "ms"},
      {"align.sam.records", "count"},
      {"align.sam.bytes", "bytes"},
      {"align.sam.busy_ms", "ms"},
      {"align.stream.ingest_wait_ms", "ms"},
      {"trace.reads", "count"},
      {"trace.replay_ms", "ms"},
      {"trace.untraced_ms", "ms"},
      {"trace.coverage", "ratio"},
      {"serve.admit_ms.p50", "ms"},
      {"serve.admit_ms.p99", "ms"},
      {"serve.queue_ms.p50", "ms"},
      {"serve.queue_ms.p99", "ms"},
      {"serve.compute_ms.p50", "ms"},
      {"serve.compute_ms.p99", "ms"},
      {"serve.drain_ms.p50", "ms"},
      {"serve.drain_ms.p99", "ms"},
      {"net.recv_ms.p50", "ms"},
      {"net.transit_ms.p50", "ms"},
      {"net.transit_ms.p99", "ms"},
      {"net.request_bytes", "bytes"},
      {"net.response_bytes", "bytes"},
      {"loadgen.sent", "count"},
      {"loadgen.lag_ms.p99", "ms"},
      {"pim.host_busy_ms", "ms"},
      {"pim.lfm_calls", "count"},
      {"pim.lfm_per_read", "count"},
      {"pim.boundary_marker_ratio", "ratio"},
      {"pim.sa_mem_reads", "count"},
      {"pim.ops.reads", "count"},
      {"pim.ops.writes", "count"},
      {"pim.ops.triple_senses", "count"},
      {"pim.ops.dpu_word_ops", "count"},
      {"pim.sim_ns_per_read", "ns"},
      {"pim.sim_pj_per_read", "pJ"},
      {"pim.model_chip_qps", "1/s"},
  };
  return defs;
}

Report::Report(bool trace)
    : defs_(trace ? &per_layer_metrics() : &end_to_end_metrics()) {
  for (const auto& def : *defs_) values_.emplace(def.name, 0.0);
}

void Report::set(std::string_view name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("perfbench: metric not in this family: " +
                           std::string(name));
  }
  it->second = value;
}

void Report::fail(const std::string& why) {
  ++failed;
  // The first few causes are enough to debug; the count carries the rest.
  if (failed <= 5) {
    std::fprintf(stderr, "perfbench: failure: %s\n", why.c_str());
  }
}

void Report::print() const {
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& def : *defs_) {
    const double v = values_.find(def.name)->second;
    std::printf("%s %.17g %s\n", def.name, v, def.unit);
    json << (first ? "" : ", ") << '"' << def.name << "\": {\"value\": "
         << (std::isfinite(v) ? v : 0.0) << ", \"unit\": \"" << def.unit
         << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Workloads and inputs.

WorkloadSpec workload_spec(const std::string& name) {
  // One 1 Mbp reference serves the three paper-mix workloads; exact_only's
  // 16 Mbp reference puts the BWT and markers (several MB) above the
  // per-core L2.
  const WorkloadSpec paper{.name = name,
                           .reference_bp = std::size_t{1} << 20,
                           .reference_seed = 20200309,
                           .variation_rate = 0.001,
                           .error_rate = 0.002,
                           .pool_reads = 16384};
  if (name == "paper_mix") {
    WorkloadSpec spec = paper;
    spec.segment_reads = 2048;
    return spec;
  }
  if (name == "exact_only") {
    return {.name = name,
            .reference_bp = std::size_t{16} << 20,
            .reference_seed = 20200310,
            .pool_reads = 131072,
            .segment_reads = 16384,
            .trace_reads = 32768};
  }
  if (name == "wire_paced") return paper;
  if (name == "pim_sim") {
    WorkloadSpec spec = paper;
    spec.pool_reads = 1024;  // p99 of per-read time has 10 samples beyond it
    return spec;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

align::AlignerOptions aligner_options() {
  align::AlignerOptions options;
  options.inexact.max_diffs = 2;
  return options;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   std::size_t pool_reads) {
  Inputs in;
  genome::SyntheticGenomeSpec ref;
  ref.length = spec.reference_bp;
  ref.seed = spec.reference_seed;
  in.reference = genome::generate_reference(ref);

  readsim::ReadSimSpec rs;
  rs.read_length = 100;
  rs.num_reads = pool_reads;
  rs.population_variation_rate = spec.variation_rate;
  rs.sequencing_error_rate = spec.error_rate;
  rs.sample_both_strands = true;
  rs.seed = seed;
  in.reads = readsim::ReadSimulator(rs).generate(in.reference);
  in.render();
  return in;
}

void Inputs::render() {
  // FASTQ text as a sequencer hands it over: "@r<i>", bases, "+", flat
  // Phred-30 qualities.
  std::string text;
  text.reserve(reads.reads.size() * 220);
  record_offsets.clear();
  record_offsets.reserve(reads.reads.size() + 1);
  for (std::size_t i = 0; i < reads.reads.size(); ++i) {
    record_offsets.push_back(text.size());
    const auto& bases = reads.reads[i].bases;
    text += "@r" + std::to_string(i) + '\n';
    for (const auto b : bases) text += genome::to_char(b);
    text += "\n+\n";
    text.append(bases.size(), genome::phred_to_char(30));
    text += '\n';
  }
  record_offsets.push_back(text.size());
  fastq = std::move(text);

  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : fastq) {
    h ^= c;
    h *= 1099511628211ull;
  }
  digest = h;
}

align::ReadBatch Inputs::batch(std::size_t begin, std::size_t end) const {
  align::ReadBatchBuilder builder;
  builder.reserve(end - begin, (end - begin) * 100);
  for (std::size_t i = begin; i < end; ++i) builder.add(reads.reads[i].bases);
  return builder.build();
}

std::vector<std::vector<genome::Base>> Inputs::read_vectors(
    std::size_t begin, std::size_t end) const {
  std::vector<std::vector<genome::Base>> out;
  out.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) out.push_back(reads.reads[i].bases);
  return out;
}

// ---------------------------------------------------------------------------
// Oracle.

bool same_hits(const align::BatchResult& expected, std::size_t i,
               std::span<const align::AlignmentHit> hits) {
  const auto want = expected.hits(i);
  return std::equal(want.begin(), want.end(), hits.begin(), hits.end(),
                    [](const align::AlignmentHit& a,
                       const align::AlignmentHit& b) {
                      return a.position == b.position && a.diffs == b.diffs &&
                             a.strand == b.strand;
                    });
}

align::BatchResult compute_expected(const index::FmIndex& fm,
                                    const Inputs& inputs, std::size_t begin,
                                    std::size_t end) {
  const align::SoftwareEngine engine(fm, aligner_options());
  align::BatchResult expected;
  align::ParallelOptions parallel;
  parallel.num_threads = 4;
  align::align_batch_parallel(engine, inputs.batch(begin, end), expected,
                              parallel);
  return expected;
}

bool placed_correctly(const readsim::SimulatedRead& truth,
                      const std::optional<align::AlignmentHit>& primary) {
  if (!primary) return false;
  const bool reverse = primary->strand == align::Strand::kReverseComplement;
  const auto distance = primary->position > truth.origin
                            ? primary->position - truth.origin
                            : truth.origin - primary->position;
  return reverse == truth.reverse_strand &&
         distance <= aligner_options().inexact.max_diffs;
}

// ---------------------------------------------------------------------------
// TimedEngine.

void TimedEngine::align_range(const align::ReadBatch& batch, std::size_t begin,
                              std::size_t end, align::BatchResult& out) const {
  std::vector<double> local;
  local.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    const auto t0 = Clock::now();
    if (inject_mismatch_ && i == 0) {
      align::BatchResult one;
      inner_->align_range(batch, i, i + 1, one);
      std::vector<align::AlignmentHit> hits(one.hits(0).begin(),
                                            one.hits(0).end());
      for (auto& hit : hits) hit.position += 1;
      if (hits.empty()) hits.push_back(align::AlignmentHit{0, 0, {}});
      out.add_read(align::AlignmentStage::kExact, hits);
    } else {
      inner_->align_range(batch, i, i + 1, out);
    }
    local.push_back(ms_since(t0));
  }
  std::lock_guard<std::mutex> lock(mu_);
  samples_.insert(samples_.end(), local.begin(), local.end());
}

std::vector<double> TimedEngine::take_samples() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(samples_, {});
}

// ---------------------------------------------------------------------------
// Helpers.

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// HostProbe.

namespace {

/// The rank kernel's text: 4 Mi random 2-bit symbols in 64-bit words, each
/// word with its four symbol counts up to it, 3 MiB in all — past the
/// per-core L2, as the aligner's working set is.
constexpr std::size_t kProbeTextWords = std::size_t{1} << 17;
constexpr std::size_t kProbeRankSteps = 100000;
constexpr std::size_t kProbeAluRounds = 1000000;
/// Runs of each kernel per sample; the median run counts.
constexpr std::size_t kProbeRepeats = 3;
/// Kernel times on the reference host, a quiet 4-vCPU Sapphire Rapids KVM
/// guest (README.md): where a sample's slowdown is 1.
constexpr double kRankReferenceMs = 5.4;
constexpr double kAluReferenceMs = 2.1;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

HostProbe::HostProbe()
    : text_(kProbeTextWords), ranks_(kProbeTextWords * 4) {
  std::uint64_t x = 77;
  std::uint32_t counts[4] = {0, 0, 0, 0};
  for (std::size_t w = 0; w < kProbeTextWords; ++w) {
    text_[w] = xorshift(x);
    for (int c = 0; c < 4; ++c) ranks_[w * 4 + c] = counts[c];
    for (int j = 0; j < 32; ++j) ++counts[(text_[w] >> (2 * j)) & 3];
  }
}

void HostProbe::sample() {
  std::array<double, kProbeRepeats> rank_ms, alu_ms;
  for (std::size_t r = 0; r < kProbeRepeats; ++r) {
    rank_ms[r] = rank_kernel_ms();
    alu_ms[r] = alu_kernel_ms();
  }
  std::sort(rank_ms.begin(), rank_ms.end());
  std::sort(alu_ms.begin(), alu_ms.end());
  slowdowns_.push_back(
      std::sqrt((rank_ms[kProbeRepeats / 2] / kRankReferenceMs) *
                (alu_ms[kProbeRepeats / 2] / kAluReferenceMs)));
}

double HostProbe::rank_kernel_ms() {
  // Backward-search-like chains: each step's rank query (checkpoint load
  // plus popcount over the word's matching symbols) picks the next row.
  const std::uint64_t n = kProbeTextWords * 32;
  auto occ = [&](unsigned c, std::uint64_t i) {
    const std::uint64_t w = i / 32, r = i % 32;
    std::uint64_t eq = ~(text_[w] ^ (0x5555555555555555ull * c));
    eq &= (eq >> 1) & 0x5555555555555555ull;
    eq &= r == 0 ? 0 : ~0ull >> (64 - 2 * r);
    return ranks_[w * 4 + c] +
           static_cast<std::uint64_t>(__builtin_popcountll(eq));
  };
  std::uint64_t h = state_ + 12345;
  const auto t0 = Clock::now();
  std::uint64_t lo = 0, hi = n - 1;  // rows stay below n: occ reads word i / 32
  for (std::size_t step = 0; step < kProbeRankSteps; ++step) {
    const unsigned c = xorshift(h) & 3;
    lo = (n / 4) * c + occ(c, lo) % (n / 4);
    hi = (n / 4) * c + occ(c, hi) % (n / 4);
    if (lo >= hi) {
      lo = h % (n / 2);
      hi = lo + (h >> 40) % (n / 2);
    }
  }
  const double ms = ms_since(t0);
  state_ = lo + hi;
  return ms;
}

double HostProbe::alu_kernel_ms() {
  // Independent integer work: eight xorshift lanes in flight at once.
  const auto t0 = Clock::now();
  std::uint64_t lanes[8] = {1, 2, 3, 4, 5, 6, 7, state_ | 1};
  for (std::size_t i = 0; i < kProbeAluRounds; ++i) {
    for (auto& v : lanes) xorshift(v);
  }
  const double ms = ms_since(t0);
  for (const auto v : lanes) state_ += v;
  return ms;
}

double HostProbe::around(std::size_t i) const {
  if (i + 1 >= slowdowns_.size()) return slowdowns_.at(i);
  return 0.5 * (slowdowns_[i] + slowdowns_[i + 1]);
}

}  // namespace perfbench
