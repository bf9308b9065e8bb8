// paper_mix / exact_only: FASTQ text -> StreamingPipeline(SoftwareEngine)
// -> SamWriter, with every SAM record checked as it is written.
// pim_sim: PimEngine over a fixed seeded read pool.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <istream>
#include <memory>
#include <numeric>
#include <ostream>
#include <streambuf>

#include "bench.h"
#include "src/accel/measured_load.h"
#include "src/accel/pim_aligner_model.h"
#include "src/align/backward_search.h"
#include "src/align/inexact_search.h"
#include "src/align/sam_writer.h"
#include "src/align/streaming_pipeline.h"
#include "src/pim/pim_engine.h"

namespace perfbench {

namespace {

namespace hw = pim::hw;
namespace accel = pim::accel;

/// Checks SamWriter output as it is written: exactly one primary record per
/// read, in read order, at the oracle's primary position and strand.
class SamCheck : public std::streambuf {
 public:
  /// Expects the records of reads [begin, end), in order.
  SamCheck(const align::BatchResult& expected, std::size_t begin,
           std::size_t end, Report& report)
      : expected_(&expected), next_(begin), reads_(end), report_(&report) {}

  /// Fail every read whose primary record never arrived.
  void finish() {
    for (; next_ < reads_; ++next_) {
      report_->fail("no primary SAM record for r" + std::to_string(next_));
    }
  }
 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::string_view rest(s, static_cast<std::size_t>(n));
    while (!rest.empty()) {
      const auto nl = rest.find('\n');
      line_.append(rest.substr(0, nl));
      if (nl == std::string_view::npos) break;
      check_line();
      line_.clear();
      rest.remove_prefix(nl + 1);
    }
    return n;
  }

 private:
  void check_line() {
    if (line_.empty() || line_[0] == '@') return;  // header
    std::string_view fields[4];
    std::string_view rest = line_;
    for (auto& f : fields) {
      const auto tab = rest.find('\t');
      f = rest.substr(0, tab);
      rest.remove_prefix(tab == std::string_view::npos ? rest.size() : tab + 1);
    }
    unsigned flag = 0;
    std::uint64_t pos = 0;
    std::size_t read = 0;
    auto parse = [](std::string_view field, auto& value) {
      return std::from_chars(field.data(), field.data() + field.size(), value);
    };
    parse(fields[1], flag);
    parse(fields[3], pos);
    if (fields[0].size() < 2 ||
        parse(fields[0].substr(1), read).ec != std::errc{}) {
      report_->fail("unparseable SAM QNAME: " + std::string(fields[0]));
      return;
    }
    if ((flag & align::SamRecord::kFlagSecondary) != 0) return;
    if (read < next_ || read >= reads_) {
      report_->fail("duplicate primary SAM record for r" +
                    std::to_string(read));
      return;
    }
    for (; next_ < read; ++next_) {
      report_->fail("no primary SAM record for r" + std::to_string(next_));
    }
    ++next_;
    const auto want = expected_->best(read);
    const bool unmapped = (flag & align::SamRecord::kFlagUnmapped) != 0;
    const bool reverse = (flag & align::SamRecord::kFlagReverse) != 0;
    const bool ok =
        unmapped ? !want
                 : want && want->position + 1 == pos &&
                       reverse == (want->strand ==
                                   align::Strand::kReverseComplement);
    if (!ok) report_->fail("primary SAM record differs for r" +
                           std::to_string(read));
  }

  const align::BatchResult* expected_;
  std::size_t next_;
  std::size_t reads_;
  Report* report_;
  std::string line_;
};

double mapped_correct_frac(const Inputs& in,
                           const align::BatchResult& results,
                           std::size_t reads) {
  std::size_t good = 0;
  for (std::size_t i = 0; i < reads; ++i) {
    good += placed_correctly(in.reads.reads[i], results.best(i));
  }
  return static_cast<double>(good) / static_cast<double>(reads);
}

/// The quality floor below which a run is not a valid measurement. Reads
/// from the reference's planted repeats may place on an equally good copy,
/// so about 3% (paper mix) to 6% (exact reads) miss their origin.
constexpr double kMinMappedCorrect = 0.9;

}  // namespace

void run_stream_workload(const WorkloadSpec& spec, const Args& args,
                         Report& report) {
  const std::size_t pool = args.reads != 0 ? args.reads : spec.pool_reads;
  const Inputs in = make_inputs(spec, args.seed, pool);
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu reads, digest %016llx\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               pool, static_cast<unsigned long long>(in.digest));

  index::FmIndex fm;
  if (args.trace) {
    const auto t0 = Clock::now();
    fm = index::FmIndex::build(in.reference);
    report.set("index.build_ms", ms_since(t0));
    const std::size_t traced = std::min(pool, spec.trace_reads);
    const align::BatchResult expected = compute_expected(fm, in, 0, traced);
    replay_stream(fm, in, traced, expected, args, report);
    return;
  }
  report.set("setup_s", median_setup_s(fm, [&] {
               return index::FmIndex::build(in.reference);
             }));

  const align::BatchResult expected = compute_expected(fm, in, 0, pool);
  const align::SoftwareEngine software(fm, aligner_options());
  TimedEngine timed(software, args.inject_mismatch);
  const align::StreamingPipeline pipeline(timed, stream_options());

  // One pass streams one segment of the pool: [begin, end).
  auto pass = [&](std::size_t begin, std::size_t end) {
    ViewBuf fastq(std::string_view(in.fastq).substr(
        in.record_offsets[begin],
        in.record_offsets[end] - in.record_offsets[begin]));
    std::istream is(&fastq);
    genome::FastqStreamReader reader(is);
    SamCheck check(expected, begin, end, report);
    std::ostream os(&check);
    align::SamWriter writer(os, "ref", in.reference);
    writer.write_header();
    const auto t0 = Clock::now();
    const align::StreamingStats stats = pipeline.run(reader, writer);
    const double ms = ms_since(t0);
    os.flush();
    check.finish();
    report.attempted += end - begin;
    if (stats.reads != end - begin) report.fail("pipeline dropped reads");
    return ms;
  };

  // Short passes over the pool's segments in turn, so the median rate
  // shrugs off transient host slowdowns; each pass's rate and per-read
  // times are scaled by the host slowdown around it.
  const std::size_t segment = std::min(pool, spec.segment_reads);
  const std::size_t segments = pool / segment;
  pass(0, segment);  // warm-up: page in the index and the allocator's arenas
  timed.take_samples();
  HostProbe probe;
  std::vector<double> raw_rates, rates, raw_latencies, latencies;
  const auto start = Clock::now();
  double last_ms = 0.0;
  probe.sample();
  for (std::size_t k = 0;
       k < segments || ms_since(start) + last_ms < args.seconds * 1000.0; ++k) {
    const std::size_t begin = (k % segments) * segment;
    last_ms = pass(begin, begin + segment);
    probe.sample();
    const double slowdown = probe.around(k);
    raw_rates.push_back(static_cast<double>(segment) / (last_ms / 1000.0));
    rates.push_back(raw_rates.back() * slowdown);
    for (const double ms : timed.take_samples()) {
      raw_latencies.push_back(ms);
      latencies.push_back(ms / slowdown);
    }
  }
  std::fprintf(stderr, "perfbench: pass rates");
  for (const double r : raw_rates) std::fprintf(stderr, " %.0f", r);
  std::fprintf(stderr, "\nperfbench: host slowdowns");
  for (const double s : probe.samples()) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr,
               "\nperfbench: raw reads_per_s %.1f latency p50 %.5f p99 %.4f "
               "ms\n",
               median(raw_rates), percentile(raw_latencies, 0.50),
               percentile(raw_latencies, 0.99));

  report.set("reads_per_s", median(rates));
  report.set("latency_p50_ms", percentile(latencies, 0.50));
  report.set("latency_p99_ms", percentile(latencies, 0.99));
  const double mapped = mapped_correct_frac(in, expected, pool);
  report.set("mapped_correct_frac", mapped);
  report.set("peak_rss_mb", peak_rss_mb());
  std::fprintf(stderr, "perfbench: %zu passes, %zu latency samples\n",
               rates.size(), latencies.size());
  if (mapped < kMinMappedCorrect) report.correct = false;
}

align::StreamingOptions stream_options() {
  align::StreamingOptions options;
  options.batch_reads = 1024;
  options.parallel.num_threads = 1;
  return options;
}

// ---------------------------------------------------------------------------
// pim_sim.

namespace {

/// One read's PimEngine::run outcome.
struct PimRead {
  hw::HwBatchReport report;
  std::vector<align::AlignmentHit> hits;
  align::AlignmentStage stage = align::AlignmentStage::kUnaligned;
  double host_ms = 0.0;
  double scaled_ms = 0.0;  ///< host_ms over the host slowdown around it.
};

/// The index and one simulated platform over it (the platform keeps a
/// pointer to the index, so both live on the heap).
struct PimSetup {
  std::unique_ptr<index::FmIndex> fm;
  std::unique_ptr<hw::PimAlignerPlatform> platform;
};

/// Reads between two host probes in a pim_sim pass (about half a second).
constexpr std::size_t kReadsPerProbe = 32;

/// Align every read through its own PimEngine::run, so each read's report
/// covers exactly that read; probe the host every kReadsPerProbe reads and
/// after the last.
std::vector<PimRead> pim_pass(const hw::PimEngine& engine, const Inputs& in,
                              std::size_t reads, HostProbe& probe) {
  std::vector<PimRead> out(reads);
  std::vector<std::size_t> interval(reads);
  for (std::size_t i = 0; i < reads; ++i) {
    if (i % kReadsPerProbe == 0) probe.sample();
    interval[i] = probe.samples().size() - 1;
    const align::ReadBatch batch = in.batch(i, i + 1);
    align::BatchResult result;
    const auto t0 = Clock::now();
    out[i].report = engine.run(batch, result);
    out[i].host_ms = ms_since(t0);
    out[i].hits.assign(result.hits(0).begin(), result.hits(0).end());
    out[i].stage = result.stage(0);
  }
  probe.sample();
  for (std::size_t i = 0; i < reads; ++i) {
    out[i].scaled_ms = out[i].host_ms / probe.around(interval[i]);
  }
  return out;
}

/// Candidates the seed generates per pim_sim read.
constexpr std::size_t kCandidatesPerRead = 4;

/// The states stage two explores for a read on both strands; 0 when stage
/// one finds it. Deterministic, and PimEngine's host time follows it.
std::uint64_t stage_two_states(const index::FmIndex& fm,
                               const std::vector<genome::Base>& read) {
  std::vector<genome::Base> rc;
  genome::reverse_complement_into(read, rc);
  if (align::exact_search(fm, read).found() ||
      align::exact_search(fm, rc).found()) {
    return 0;
  }
  const align::InexactOptions options = aligner_options().inexact;
  return align::inexact_search(fm, read, options).states_explored +
         align::inexact_search(fm, rc, options).states_explored;
}

/// The pim_sim pool: `pool` of the seed's candidates, one from each run of
/// kCandidatesPerRead in stage-two cost order (the earliest generated of
/// the run), kept in generation order. A few reads whose stage two runs for
/// a second dominate the pool's host time, and a plain random pool of a
/// thousand reads draws a different number of them for every seed; this
/// way each seed gets different reads with nearly the same cost profile.
Inputs stratified_pool(Inputs candidates, const index::FmIndex& fm,
                       std::size_t pool) {
  auto& reads = candidates.reads.reads;
  std::vector<std::uint64_t> cost(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    cost[i] = stage_two_states(fm, reads[i].bases);
  }
  std::vector<std::size_t> order(reads.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return cost[a] < cost[b]; });
  std::vector<std::size_t> keep;
  for (std::size_t run = 0; run < pool; ++run) {
    const auto first = order.begin() + static_cast<std::ptrdiff_t>(
                                           run * kCandidatesPerRead);
    keep.push_back(*std::min_element(
        first, first + static_cast<std::ptrdiff_t>(kCandidatesPerRead)));
  }
  std::sort(keep.begin(), keep.end());
  std::vector<readsim::SimulatedRead> kept;
  kept.reserve(pool);
  for (const std::size_t i : keep) kept.push_back(std::move(reads[i]));
  reads = std::move(kept);
  candidates.render();
  return candidates;
}

/// Whole-pool totals, summed in read order so they repeat bit-exactly.
struct PimTotals {
  double busy_ns = 0.0;
  double energy_pj = 0.0;
  hw::PimAlignerPlatform::AggregateStats hardware;
  double host_ms = 0.0;

  bool operator==(const PimTotals& o) const {
    return busy_ns == o.busy_ns && energy_pj == o.energy_pj &&
           hardware.lfm_calls == o.hardware.lfm_calls &&
           hardware.ops.triple_senses == o.hardware.ops.triple_senses;
  }
};

PimTotals totals_of(const std::vector<PimRead>& reads) {
  PimTotals t;
  for (const auto& r : reads) {
    t.busy_ns += r.report.busy_ns;
    t.energy_pj += r.report.energy_pj;
    t.hardware.ops += r.report.hardware.ops;
    t.hardware.lfm_calls += r.report.hardware.lfm_calls;
    t.hardware.boundary_marker_hits += r.report.hardware.boundary_marker_hits;
    t.hardware.sa_mem_reads += r.report.hardware.sa_mem_reads;
    t.host_ms += r.host_ms;
  }
  return t;
}

}  // namespace

void run_pim_workload(const WorkloadSpec& spec, const Args& args,
                      Report& report) {
  const std::size_t pool = args.reads != 0 ? args.reads : spec.pool_reads;
  Inputs candidates =
      make_inputs(spec, args.seed, kCandidatesPerRead * pool);

  const hw::TimingEnergyModel timing;
  PimSetup pim;
  auto setup = [&] {
    PimSetup built;
    built.fm = std::make_unique<index::FmIndex>(
        index::FmIndex::build(candidates.reference));
    built.platform =
        std::make_unique<hw::PimAlignerPlatform>(*built.fm, timing);
    return built;
  };
  if (args.trace) {
    const auto t0 = Clock::now();
    pim = setup();
    report.set("index.build_ms", ms_since(t0));
  } else {
    report.set("setup_s", median_setup_s(pim, setup));
  }
  const index::FmIndex& fm = *pim.fm;
  const Inputs in = stratified_pool(std::move(candidates), fm, pool);
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu reads, digest %016llx\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               pool, static_cast<unsigned long long>(in.digest));
  const hw::PimEngine engine(*pim.platform, aligner_options());
  const align::BatchResult expected = compute_expected(fm, in, 0, pool);

  HostProbe probe;
  std::vector<double> raw_rates, rates, raw_latencies, latencies;
  std::vector<PimRead> first;
  const auto start = Clock::now();
  double last_ms = 0.0;
  do {
    const auto t0 = Clock::now();
    std::vector<PimRead> reads = pim_pass(engine, in, pool, probe);
    last_ms = ms_since(t0);
    // The rates count the engine's time only, not the probes between reads.
    double raw_ms = 0.0, scaled_ms = 0.0;
    for (const auto& r : reads) {
      raw_ms += r.host_ms;
      scaled_ms += r.scaled_ms;
    }
    raw_rates.push_back(static_cast<double>(pool) / (raw_ms / 1000.0));
    rates.push_back(static_cast<double>(pool) / (scaled_ms / 1000.0));
    report.attempted += pool;
    for (std::size_t i = 0; i < pool; ++i) {
      raw_latencies.push_back(reads[i].host_ms);
      latencies.push_back(reads[i].scaled_ms);
      if (!same_hits(expected, i, reads[i].hits)) {
        report.fail("PimEngine result differs from SoftwareEngine for r" +
                    std::to_string(i));
      }
    }
    if (first.empty()) {
      first = std::move(reads);
    } else if (!(totals_of(reads) == totals_of(first))) {
      report.fail("simulated totals changed between passes");
    }
  } while (!args.trace &&
           ms_since(start) + last_ms < args.seconds * 1000.0);

  const PimTotals totals = totals_of(first);
  align::BatchResult engine_results;
  for (const auto& r : first) engine_results.add_read(r.stage, r.hits);
  const double mapped = mapped_correct_frac(in, engine_results, pool);
  std::fprintf(stderr,
               "perfbench: sim_ns_per_read %.17g sim_pj_per_read %.17g "
               "lfm_calls %llu\n",
               totals.busy_ns / static_cast<double>(pool),
               totals.energy_pj / static_cast<double>(pool),
               static_cast<unsigned long long>(totals.hardware.lfm_calls));

  if (!args.trace) {
    std::fprintf(stderr, "perfbench: host slowdowns");
    for (const double s : probe.samples()) std::fprintf(stderr, " %.3f", s);
    std::fprintf(stderr,
                 "\nperfbench: raw reads_per_s %.2f latency p50 %.4f p99 "
                 "%.3f ms\n",
                 median(raw_rates), percentile(raw_latencies, 0.50),
                 percentile(raw_latencies, 0.99));
    report.set("reads_per_s", median(rates));
    report.set("latency_p50_ms", percentile(latencies, 0.50));
    report.set("latency_p99_ms", percentile(latencies, 0.99));
    report.set("mapped_correct_frac", mapped);
    report.set("peak_rss_mb", peak_rss_mb());
    if (mapped < kMinMappedCorrect) report.correct = false;
    return;
  }

  const double n = static_cast<double>(pool);
  accel::MeasuredChipLoad load;
  load.reads = pool;
  load.lfm_calls = totals.hardware.lfm_calls;
  const accel::PimChipModel chip(
      timing, {}, accel::chip_model_from_measured(load, 100));
  report.set("pim.host_busy_ms", totals.host_ms);
  report.set("pim.lfm_calls", static_cast<double>(totals.hardware.lfm_calls));
  report.set("pim.lfm_per_read",
             static_cast<double>(totals.hardware.lfm_calls) / n);
  report.set("pim.boundary_marker_ratio",
             static_cast<double>(totals.hardware.boundary_marker_hits) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, totals.hardware.lfm_calls)));
  report.set("pim.sa_mem_reads",
             static_cast<double>(totals.hardware.sa_mem_reads));
  report.set("pim.ops.reads", static_cast<double>(totals.hardware.ops.reads));
  report.set("pim.ops.writes", static_cast<double>(totals.hardware.ops.writes));
  report.set("pim.ops.triple_senses",
             static_cast<double>(totals.hardware.ops.triple_senses));
  report.set("pim.ops.dpu_word_ops",
             static_cast<double>(totals.hardware.ops.dpu_word_ops));
  report.set("pim.sim_ns_per_read", totals.busy_ns / n);
  report.set("pim.sim_pj_per_read", totals.energy_pj / n);
  report.set("pim.model_chip_qps", chip.evaluate(2).throughput_qps);

  // The replay's fidelity target is the engine under test: PimEngine.
  replay_reads(fm, in, pool, engine_results, args, report);
}

}  // namespace perfbench
