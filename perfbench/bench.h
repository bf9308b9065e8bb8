// Shared vocabulary of the perfbench program: workload inputs, the metric
// report, the correctness oracle and the per-read latency probe.
//
// The benchmark treats the library as a black box reached only through its
// public headers. Every workload is generated from (workload, --seed): a
// fixed synthetic reference per workload and a seeded read set, handed to
// the program as FASTQ text, a ReadBatch or wire frames.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "src/align/engine.h"
#include "src/align/read_batch.h"
#include "src/align/streaming_pipeline.h"
#include "src/genome/packed_sequence.h"
#include "src/index/fm_index.h"
#include "src/readsim/read_simulator.h"

namespace perfbench {

namespace align = pim::align;
namespace genome = pim::genome;
namespace index = pim::index;
namespace readsim = pim::readsim;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Override of the workload's read-pool size (0 = the workload's own).
  /// Only the benchmark's tests shrink it; reported metrics assume 0.
  std::size_t reads = 0;
  /// Corrupt the first read's result inside the measured engine, so the
  /// correctness check must count it (exercised by the tests).
  bool inject_mismatch = false;
  /// Where the traced run writes its spans (empty = do not write).
  std::string spans_path;
};

// ---------------------------------------------------------------------------
// Metrics. The names and units are fixed here; BENCHMARK.json lists the
// same ones and the tests check the two agree.

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// What one invocation prints: every metric of the selected family (unset
/// ones as 0), then the JSON result line.
class Report {
 public:
  explicit Report(bool trace);
  /// Throws std::logic_error for a name outside the selected family.
  void set(std::string_view name, double value);

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Mark one failed operation and say why on stderr.
  void fail(const std::string& why);
  void print() const;

 private:
  const std::vector<MetricDef>* defs_;
  std::map<std::string, double, std::less<>> values_;
};

// ---------------------------------------------------------------------------
// Inputs.

struct WorkloadSpec {
  std::string name;
  std::size_t reference_bp = 0;
  std::uint64_t reference_seed = 0;  ///< Fixed: part of the workload.
  double variation_rate = 0.0;
  double error_rate = 0.0;
  std::size_t pool_reads = 0;  ///< Reads generated from --seed.
  /// Reads per timed pass (streaming workloads): passes cycle through the
  /// pool's segments.
  std::size_t segment_reads = 0;
  /// Reads the traced run replays (pim_sim replays its whole pool).
  std::size_t trace_reads = 4096;
};

/// The spec of a named workload; throws std::invalid_argument if unknown.
WorkloadSpec workload_spec(const std::string& name);

struct Inputs {
  genome::PackedSequence reference;
  readsim::ReadSet reads;          ///< Ground truth travels with each read.
  std::string fastq;               ///< The reads as FASTQ text.
  std::vector<std::size_t> record_offsets;  ///< Byte offset of each record.
  std::uint64_t digest = 0;        ///< FNV-1a over the FASTQ text.

  /// (Re)build fastq, record_offsets and digest from `reads`.
  void render();
  /// The reads as a ReadBatch (names and qualities dropped).
  align::ReadBatch batch(std::size_t begin, std::size_t end) const;
  std::vector<std::vector<genome::Base>> read_vectors(std::size_t begin,
                                                      std::size_t end) const;
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   std::size_t pool_reads);

/// The aligner configuration of every workload: the paper's z = 2, both
/// strands, substitutions only, up to 64 hits.
align::AlignerOptions aligner_options();

// ---------------------------------------------------------------------------
// Correctness oracle: the in-process SoftwareEngine over the same reads.

/// The engine's results for reads [begin, end). Read i's primary hit is
/// results.best(i), as SamWriter chooses it (fewest diffs, then leftmost).
align::BatchResult compute_expected(const index::FmIndex& fm,
                                    const Inputs& inputs, std::size_t begin,
                                    std::size_t end);

/// True when `hits` equals read i's hit list in `expected` (position, diffs,
/// strand, in order).
bool same_hits(const align::BatchResult& expected, std::size_t i,
               std::span<const align::AlignmentHit> hits);

/// True when `primary` lies on the simulated strand within z bp of the
/// simulated origin — the result-quality guard behind mapped_correct_frac.
bool placed_correctly(const readsim::SimulatedRead& truth,
                      const std::optional<align::AlignmentHit>& primary);

// ---------------------------------------------------------------------------
// Measured engine: wraps the engine under test, times every read it aligns
// and, on request, corrupts read 0 of each batch.

class TimedEngine final : public align::AlignmentEngine {
 public:
  TimedEngine(const align::AlignmentEngine& inner, bool inject_mismatch)
      : inner_(&inner), inject_mismatch_(inject_mismatch) {}

  std::string_view name() const override { return inner_->name(); }
  bool thread_safe() const override { return inner_->thread_safe(); }
  void align_range(const align::ReadBatch& batch, std::size_t begin,
                   std::size_t end, align::BatchResult& out) const override;

  /// Per-read align times recorded so far, in ms; clears them.
  std::vector<double> take_samples();

 private:
  const align::AlignmentEngine* inner_;
  bool inject_mismatch_;
  mutable std::mutex mu_;
  mutable std::vector<double> samples_;  ///< Guarded by mu_.
};

// ---------------------------------------------------------------------------
// Small statistics, stream and process helpers.

/// Read-only stream buffer over text the caller keeps alive.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(std::string_view text) {
    char* p = const_cast<char*>(text.data());
    setg(p, p, p + text.size());
  }
};

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Host speed. The benchmark runs on a shared host whose speed drifts by up
// to 2x over minutes as other tenants contend for cores and caches. So
// every time metric is reported at a fixed reference host speed: two small
// kernels of the benchmark's own, which no library change can touch, are
// timed next to the measured work, and a time measured while they ran s
// times slower than on the reference host is reported divided by s (a rate
// multiplied by s). The raw figures and every s go to stderr.
//
// The kernels stand in for the aligner's two kinds of work: chains of rank
// queries over a 3 MiB FM-index-like table (memory) and independent integer
// arithmetic (compute). A sample's slowdown is the geometric mean of theirs;
// of the kernels tried, that pair tracked the aligner's own slowdowns best.
// The host is sampled before and after every measured interval (a pass, a
// block of reads, a build), and each interval is scaled by the mean of the
// two samples around it, so drift within a run is followed too.

class HostProbe {
 public:
  HostProbe();
  /// Runs each kernel three times and keeps this sample's slowdown (above 1
  /// on a host slower than the reference), from their median runs.
  void sample();
  /// The slowdown over the interval between samples i and i + 1: the mean
  /// of the two (sample i alone if it is the last).
  double around(std::size_t i) const;
  const std::vector<double>& samples() const { return slowdowns_; }

 private:
  double rank_kernel_ms();
  double alu_kernel_ms();

  std::vector<std::uint64_t> text_;
  std::vector<std::uint32_t> ranks_;
  std::uint64_t state_ = 0;
  std::vector<double> slowdowns_;
};

/// Set-up time in seconds at the reference host speed: the median of at
/// least three timed builds, each scaled by the host slowdown around it,
/// repeated up to nine times while they total under a second, so short
/// set-ups are sampled more. The last build's product is kept in `out`;
/// the previous product is released before each timed build.
template <typename T, typename BuildFn>
double median_setup_s(T& out, BuildFn build) {
  HostProbe probe;
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < 3 || (total < 1.0 && times.size() < 9)) {
    out = T{};
    probe.sample();
    const auto t0 = Clock::now();
    out = build();
    times.push_back(ms_since(t0) / 1000.0);
    total += times.back();
  }
  probe.sample();
  std::vector<double> scaled;
  for (std::size_t i = 0; i < times.size(); ++i) {
    scaled.push_back(times[i] / probe.around(i));
  }
  std::fprintf(stderr, "perfbench: setup %.4f s raw, %.4f s scaled\n",
               median(times), median(scaled));
  return median(scaled);
}

// ---------------------------------------------------------------------------
// Workloads (workloads.cpp, wire.cpp) and the traced replay (replay.cpp).

/// The streaming configuration of paper_mix and exact_only: one engine
/// worker (the producer thread still parses ahead), 1024-read generations.
align::StreamingOptions stream_options();

/// Traced replay of reads [0, reads) from their FASTQ text (parse, pack,
/// align, SAM), plus the streaming pipeline's ingest wait on the same reads.
/// Sets the per-layer metrics and fails the report if the replay's results
/// differ from `expected`, the engine's.
void replay_stream(const index::FmIndex& fm, const Inputs& in,
                   std::size_t reads, const align::BatchResult& expected,
                   const Args& args, Report& report);

/// The same from the reads as base vectors (pack, align, SAM), checked
/// against `engine_results`, the engine under test's results.
void replay_reads(const index::FmIndex& fm, const Inputs& in,
                  std::size_t reads, const align::BatchResult& engine_results,
                  const Args& args, Report& report);

void run_stream_workload(const WorkloadSpec& spec, const Args& args,
                         Report& report);
void run_wire_workload(const WorkloadSpec& spec, const Args& args,
                       Report& report);
void run_pim_workload(const WorkloadSpec& spec, const Args& args,
                      Report& report);

}  // namespace perfbench
