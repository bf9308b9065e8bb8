// Host-side batch dispatch: first the streaming pipeline (S39) against the
// materialize-everything path — peak RSS (getrusage) and throughput as JSON
// lines (grep '^{'). A small PIM-chip-fleet pass closes the loop: measured
// per-chip LFM tallies feed the closed-loop chip simulator in place of
// assumed demand.
//
// The streaming section runs FIRST: ru_maxrss is a process-lifetime
// high-water mark, so the bounded-memory pass must finish before anything
// materializes the whole workload.
//
// The S40 sections close the observability loop: a fleet-scaling sweep
// (1/2/4/8 simulated chips over one batch, per-chip cycle/energy/LFM read
// back through the metrics registry — the ROADMAP chips-vs-throughput
// curve, one invocation) and a metrics-overhead pass (instrumented vs bare
// chunked scheduler; the registry must cost < 2%).
//
// The S43 section sweeps the host->chip staging bandwidth around the
// measured critical point, emitting compute-bound AND transfer-bound
// operating points as JSON lines, and asserts (into the exit code) that
// double-buffered staging strictly beats the non-overlapped transfer +
// compute sum at the default bandwidth.
//
// Usage: engine_throughput [max_reads] [metrics.jsonl]  (default 100000;
// CI's sanitizer job passes a small count so the bench smoke-runs under
// ASan). With a second argument, the registry snapshots behind the S40
// sections are also dumped to that path as JSON lines — the CI artifact
// tools/check_metrics_schema.py gates on. Every section checks that its
// paths agree on the hit count; any disagreement exits 1.
#include <cstdio>

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>
#include <string>
#include <vector>

#include "src/accel/measured_load.h"
#include "src/align/engine.h"
#include "src/obs/metrics.h"
#include "src/obs/reporter.h"
#include "src/align/parallel_aligner.h"
#include "src/align/sam_writer.h"
#include "src/align/streaming_pipeline.h"
#include "src/genome/fastq.h"
#include "src/genome/synthetic_genome.h"
#include "src/pim/pim_fleet.h"
#include "src/util/rng.h"

namespace {

using Clock = std::chrono::steady_clock;

/// The paper's short-read shape: 100-bp reads sampled uniformly from the
/// reference. Error-free, so stage one resolves every read and the search
/// work per read is identical and minimal.
struct Workload {
  pim::genome::PackedSequence reference;
  pim::index::FmIndex fm;
  std::vector<std::uint64_t> starts;
  static constexpr std::uint32_t kReadLen = 100;

  explicit Workload(std::size_t max_reads) {
    pim::genome::SyntheticGenomeSpec spec;
    spec.length = 1 << 20;
    spec.seed = 2026;
    reference = pim::genome::generate_reference(spec);
    fm = pim::index::FmIndex::build(reference, {.bucket_width = 128});
    pim::util::Xoshiro256 rng(123);
    starts.reserve(max_reads);
    for (std::size_t i = 0; i < max_reads; ++i) {
      starts.push_back(rng.bounded(reference.size() - kReadLen));
    }
  }
};

/// Resident-set high-water mark so far, in KB (Linux ru_maxrss units).
long peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Write the workload's reads as a FASTQ file so both end-to-end paths pay
/// the same parse cost; the file lives on disk, not in either pass's RSS.
void write_workload_fastq(const Workload& w, std::size_t n,
                          const std::string& path) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < n; ++i) {
    out << "@r" << i << '\n'
        << pim::genome::decode(
               w.reference.slice(w.starts[i], w.starts[i] + Workload::kReadLen))
        << "\n+\n" << std::string(Workload::kReadLen, 'I') << '\n';
  }
}

pim::align::ReadBatch build_batch(const Workload& w, std::size_t n) {
  pim::align::ReadBatchBuilder builder;
  builder.reserve(n, n * Workload::kReadLen);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add_slice(w.reference, w.starts[i],
                      w.starts[i] + Workload::kReadLen);
  }
  return builder.build();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t kMax =
      argc > 1 ? static_cast<std::size_t>(std::stoul(argv[1])) : 100000;
  const std::string metrics_path = argc > 2 ? argv[2] : "";

  Workload w(kMax);
  pim::align::AlignerOptions options;
  options.inexact.max_diffs = 2;
  const pim::align::SoftwareEngine engine(w.fm, options);

  // --- Streaming pipeline (S39): bounded memory vs materialize ------------
  // Runs before every other section (ru_maxrss only grows). Both passes do
  // the full FASTQ -> align -> SAM trip; the streaming one holds two batch
  // generations, the materialize one the whole dataset three times over.
  std::printf("=== Streaming pipeline: FASTQ -> SAM end to end, %zu reads "
              "(JSON lines) ===\n\n",
              kMax);
  const std::string fastq_path = "/tmp/engine_throughput_stream.fastq";
  write_workload_fastq(w, kMax, fastq_path);

  double stream_qps = 0.0;
  long stream_rss_kb = 0;
  std::uint64_t stream_hits = 0;
  {
    std::ifstream fastq_in(fastq_path);
    std::ofstream devnull("/dev/null");
    pim::align::SamWriter writer(devnull, "ref", w.reference);
    writer.write_header();
    pim::genome::FastqStreamReader reader(fastq_in);
    const pim::align::StreamingPipeline pipeline(engine);
    const auto stats = pipeline.run(reader, writer);
    stream_qps = static_cast<double>(stats.reads) / (stats.wall_ms / 1e3);
    stream_rss_kb = peak_rss_kb();
    stream_hits = stats.engine.hits_total;
    std::printf("{\"bench\":\"streaming_rss\",\"path\":\"streaming\","
                "\"reads\":%llu,\"reads_per_s\":%.0f,\"peak_rss_kb\":%ld,"
                "\"peak_batch_mb\":%.2f,\"batches\":%llu,\"chunks\":%llu,"
                "\"ingest_wait_ms\":%.1f,\"sam_records\":%zu}\n",
                static_cast<unsigned long long>(stats.reads), stream_qps,
                stream_rss_kb,
                static_cast<double>(stats.peak_batch_bytes) / 1e6,
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.chunks),
                stats.ingest_wait_ms, writer.records_written());
  }
  double mat_qps = 0.0;
  long mat_rss_kb = 0;
  std::uint64_t mat_hits = 0;
  {
    const auto t0 = Clock::now();
    const auto records = pim::genome::read_fastq_file(fastq_path);
    const auto mat_batch = pim::align::ReadBatch::from_fastq(records);
    pim::align::BatchResult mat_results;
    pim::align::align_batch_parallel(engine, mat_batch, mat_results);
    std::ofstream devnull("/dev/null");
    pim::align::SamWriter writer(devnull, "ref", w.reference);
    writer.write_header();
    writer.write_batch(mat_batch, mat_results);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    mat_qps = static_cast<double>(mat_batch.size()) / secs;
    mat_rss_kb = peak_rss_kb();
    mat_hits = mat_results.stats().hits_total;
    std::printf("{\"bench\":\"streaming_rss\",\"path\":\"materialize\","
                "\"reads\":%zu,\"reads_per_s\":%.0f,\"peak_rss_kb\":%ld,"
                "\"sam_records\":%zu}\n",
                mat_batch.size(), mat_qps, mat_rss_kb,
                writer.records_written());
  }
  std::remove(fastq_path.c_str());
  const bool stream_ok = stream_hits == mat_hits;
  std::printf("{\"bench\":\"streaming_rss\",\"path\":\"ratio\","
              "\"rss_ratio\":%.2f,\"throughput_ratio\":%.2f,"
              "\"identical\":%s}\n",
              static_cast<double>(mat_rss_kb) /
                  static_cast<double>(stream_rss_kb ? stream_rss_kb : 1),
              stream_qps / (mat_qps > 0.0 ? mat_qps : 1.0),
              stream_ok ? "true" : "false");
  std::printf("streaming equivalence vs materialize: %s\n",
              stream_ok ? "bit-identical hit counts" : "MISMATCH");

  const auto batch = build_batch(w, kMax);

  // --- Metrics overhead (S40): instrumented vs bare chunked scheduler ----
  // The same parallel chunked pass with and without a registry installed;
  // best-of-3 keeps scheduler noise out of a percent-level comparison. The
  // registry's contract is near-zero cost: handles are a single branch when
  // uninstalled, and lock-free single-writer shard slots when installed.
  pim::obs::MetricsRegistry sched_registry;
  const auto sched_pass = [&](pim::obs::MetricsRegistry* registry) {
    pim::align::ParallelOptions popts;
    popts.metrics = registry;
    // At least two workers, even on a one-core host: the comparison must
    // exercise the window and the in-order drain across threads.
    popts.num_threads = std::max<std::size_t>(
        2, std::thread::hardware_concurrency());
    const auto t0 = Clock::now();
    engine.align_batch_chunked(
        batch, [](const pim::align::BatchResultChunk&) {}, popts);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  (void)sched_pass(nullptr);  // warm-up
  double bare_s = 1e300;
  double instrumented_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    bare_s = std::min(bare_s, sched_pass(nullptr));
    instrumented_s = std::min(instrumented_s, sched_pass(&sched_registry));
  }
  const double overhead_pct = (instrumented_s - bare_s) / bare_s * 100.0;
  std::printf("\n=== Metrics overhead: chunked scheduler, %zu reads "
              "(JSON line) ===\n",
              batch.size());
  std::printf("{\"bench\":\"metrics_overhead\",\"reads\":%zu,"
              "\"bare_reads_per_s\":%.0f,\"instrumented_reads_per_s\":%.0f,"
              "\"overhead_pct\":%.2f}\n",
              batch.size(), static_cast<double>(batch.size()) / bare_s,
              static_cast<double>(batch.size()) / instrumented_s,
              overhead_pct);

  // --- Measured per-chip load -> chip simulator ---------------------------
  // A small PIM fleet pass: each chip's hardware LFM tally (not the model's
  // assumed stage mix) becomes the service demand of the closed-loop chip
  // simulator.
  const std::size_t pim_reads = std::min<std::size_t>(512, kMax);
  std::printf("\n=== PIM fleet (2 chips, %zu reads): measured load -> "
              "chip_sim ===\n",
              pim_reads);
  const pim::hw::TimingEnergyModel timing;
  pim::hw::PimChipFleet fleet(w.fm, timing, 2, options);
  const auto pim_batch = build_batch(w, pim_reads);
  pim::align::BatchResult fleet_results;
  fleet.engine().align_batch(pim_batch, fleet_results);
  const bool fleet_ok =
      fleet_results.stats().hits_total ==
      [&] {
        pim::align::BatchResult sw;
        engine.align_batch(pim_batch, sw);
        return sw.stats().hits_total;
      }();
  for (const auto& load : pim::accel::measured_loads(fleet)) {
    const auto sim_cfg = pim::accel::chip_sim_from_measured(load);
    const auto sim = pim::accel::simulate_chip(sim_cfg);
    std::printf("{\"bench\":\"fleet_measured\",\"chip\":%zu,\"reads\":%llu,"
                "\"hits\":%llu,\"lfm_calls\":%llu,\"lfm_per_read\":%.1f,"
                "\"wall_ms\":%.2f,\"sim_throughput_qps\":%.0f,"
                "\"sim_group_util\":%.3f}\n",
                load.chip, static_cast<unsigned long long>(load.reads),
                static_cast<unsigned long long>(load.hits),
                static_cast<unsigned long long>(load.lfm_calls),
                load.lfm_per_read(), load.wall_ms, sim.throughput_qps,
                sim.mean_group_utilization);
  }
  std::printf("fleet equivalence vs software: %s\n",
              fleet_ok ? "bit-identical hit counts" : "MISMATCH");

  // --- Fleet scaling (S40): the chips-vs-throughput curve -----------------
  // One invocation sweeps 1/2/4/8 simulated chips over the same batch. The
  // per-chip cycle/energy/LFM tallies are published into the registry and
  // read back from the scrape — the aggregation path front-ends consume —
  // then emitted as one JSON line per point. host_reads_per_s is simulator
  // wall time (host-CPU-bound, does not scale); model_reads_per_s is the
  // paper-style device throughput — reads over the slowest chip's cycle
  // count at the model clock — which should scale with chips while
  // fleet.cycles (total chip work) and cycles/read stay flat.
  std::printf("\n=== Fleet scaling: 1/2/4/8 chips over %zu reads "
              "(JSON lines) ===\n",
              pim_reads);
  pim::obs::MetricsRegistry fleet_registry;
  const std::uint64_t pim_want_hits = [&] {
    pim::align::BatchResult sw;
    engine.align_batch(pim_batch, sw);
    return sw.stats().hits_total;
  }();
  bool scaling_ok = true;
  for (const std::size_t chips : {1u, 2u, 4u, 8u}) {
    pim::hw::PimChipFleet sweep_fleet(w.fm, timing, chips, options);
    const auto t0 = Clock::now();
    pim::align::BatchResult sweep_results;
    sweep_fleet.engine().align_batch(pim_batch, sweep_results);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    scaling_ok =
        scaling_ok && sweep_results.stats().hits_total == pim_want_hits;
    sweep_fleet.publish_metrics(fleet_registry);
    const auto snap = fleet_registry.scrape();

    std::string per_chip;
    double max_chip_cycles = 0.0;
    for (std::size_t c = 0; c < chips; ++c) {
      const std::string prefix = "chip." + std::to_string(c) + ".";
      const double cycles = snap.gauge_value(prefix + "cycles");
      max_chip_cycles = std::max(max_chip_cycles, cycles);
      if (!per_chip.empty()) per_chip += ",";
      per_chip += "{\"chip\":" + std::to_string(c) + ",\"cycles\":" +
                  std::to_string(static_cast<std::uint64_t>(cycles)) +
                  ",\"energy_pj\":" +
                  std::to_string(static_cast<std::uint64_t>(
                      snap.gauge_value(prefix + "energy_pj"))) +
                  ",\"lfm_calls\":" +
                  std::to_string(static_cast<std::uint64_t>(
                      snap.gauge_value(prefix + "lfm_calls"))) +
                  "}";
    }
    const double fleet_cycles = snap.gauge_value("fleet.cycles");
    // Chips run concurrently: device time = slowest chip's cycles / clock.
    const double model_reads_per_s =
        max_chip_cycles > 0.0
            ? static_cast<double>(pim_batch.size()) * timing.clock_ghz() *
                  1e9 / max_chip_cycles
            : 0.0;
    std::printf(
        "{\"bench\":\"fleet_scaling\",\"chips\":%zu,\"reads\":%zu,"
        "\"model_reads_per_s\":%.0f,\"host_reads_per_s\":%.0f,"
        "\"fleet_cycles\":%.0f,\"cycles_per_read\":%.0f,"
        "\"fleet_energy_pj\":%.0f,\"fleet_lfm_calls\":%llu,"
        "\"identical\":%s,\"per_chip\":[%s]}\n",
        chips, pim_batch.size(), model_reads_per_s,
        static_cast<double>(pim_batch.size()) / secs, fleet_cycles,
        fleet_cycles / static_cast<double>(pim_batch.size()),
        snap.gauge_value("fleet.energy_pj"),
        static_cast<unsigned long long>(
            snap.gauge_value("fleet.lfm_calls")),
        sweep_results.stats().hits_total == pim_want_hits ? "true" : "false",
        per_chip.c_str());
  }

  // --- Transfer-bandwidth sweep (S43) -------------------------------------
  // The fleet now charges host->chip staging (the pre-S43 numbers assumed
  // the batch teleported in for free). Sweep the per-chip link bandwidth
  // around the measured critical point bw* = bytes-per-generation /
  // compute-per-generation of the slowest chip, so the emitted operating
  // points are guaranteed to cover BOTH regimes: transfer-bound below bw*,
  // compute-bound above. Every point runs two generations (two align_batch
  // calls over the same batch) so double buffering has a previous compute
  // to hide under. Asserted into the exit code: at the default bandwidth
  // the double-buffered modeled end-to-end time is strictly below the
  // non-overlapped transfer + compute sum, and the single-buffer
  // counterfactual equals that sum exactly.
  std::printf("\n=== Transfer-bandwidth sweep (S43): %zu reads x 2 "
              "generations, 2 chips (JSON lines) ===\n",
              pim_reads);
  bool transfer_ok = true;
  const auto run_transfer_point = [&](double bandwidth_gbs,
                                      bool double_buffer) {
    pim::util::Config cfg;
    cfg.set_double("HostLinkBandwidthGBs", bandwidth_gbs);
    pim::hw::TransferOptions topts;
    topts.double_buffer = double_buffer;
    topts.config = cfg;
    pim::hw::PimChipFleet tf(w.fm, timing, 2, options, {},
                             pim::hw::AddPlacement::kMethodI, {}, topts);
    pim::align::BatchResult r1;
    tf.engine().align_batch(pim_batch, r1);
    pim::align::BatchResult r2;
    tf.engine().align_batch(pim_batch, r2);
    transfer_ok = transfer_ok && r1.stats().hits_total == pim_want_hits &&
                  r2.stats().hits_total == pim_want_hits;
    return tf.transfer_report();
  };

  // Probe at the default bandwidth to locate the critical point.
  const auto probe = run_transfer_point(16.0, true);
  double probe_bytes_per_gen = 0.0;
  double probe_compute_per_gen = 0.0;
  for (const auto& chip : probe.chips) {
    if (chip.generations == 0) continue;
    const double gens = static_cast<double>(chip.generations);
    // The slowest chip sets the fleet's operating point.
    if (chip.compute_ns / gens > probe_compute_per_gen) {
      probe_compute_per_gen = chip.compute_ns / gens;
      probe_bytes_per_gen = static_cast<double>(chip.staged_bytes) / gens;
    }
  }
  // bw* in bytes/ns == GB/s; guard tiny batches (compute ~ 0).
  const double critical_gbs =
      probe_compute_per_gen > 1.0
          ? probe_bytes_per_gen / probe_compute_per_gen
          : 1.0;
  bool saw_transfer_bound = false;
  bool saw_compute_bound = false;
  const double sweep_points[] = {critical_gbs * 0.25, critical_gbs,
                                 critical_gbs * 4.0, 16.0};
  for (const double gbs : sweep_points) {
    const auto report = run_transfer_point(gbs, true);
    // Steady-state regime of the slowest chip: link-paced when one
    // generation's staging exceeds its compute.
    double t_per_gen = 0.0;
    double c_per_gen = 0.0;
    for (const auto& chip : report.chips) {
      if (chip.generations == 0) continue;
      const double gens = static_cast<double>(chip.generations);
      if (chip.compute_ns / gens >= c_per_gen) {
        c_per_gen = chip.compute_ns / gens;
        t_per_gen = chip.staging_ns / gens;
      }
    }
    const bool transfer_bound = t_per_gen > c_per_gen;
    saw_transfer_bound = saw_transfer_bound || transfer_bound;
    saw_compute_bound = saw_compute_bound || !transfer_bound;
    std::printf(
        "{\"bench\":\"transfer_sweep\",\"bandwidth_gbs\":%.6g,"
        "\"chips\":2,\"reads\":%zu,\"generations\":%llu,"
        "\"staged_bytes\":%llu,\"staging_ns\":%.0f,\"compute_ns\":%.0f,"
        "\"stall_ns\":%.0f,\"overlapped_ns\":%.0f,\"serial_ns\":%.0f,"
        "\"overlap_ratio\":%.3f,\"energy_pj\":%.0f,\"bound\":\"%s\"}\n",
        gbs, pim_batch.size(),
        static_cast<unsigned long long>(report.generations),
        static_cast<unsigned long long>(report.staged_bytes),
        report.staging_ns, report.compute_ns, report.stall_ns,
        report.overlapped_ns, report.serial_ns, report.overlap_ratio,
        report.energy_pj, transfer_bound ? "transfer" : "compute");
  }
  // The S43 acceptance assert: overlap must pay off at the default
  // bandwidth, and turning double buffering off must cost exactly the
  // serial sum.
  const auto overlapped = run_transfer_point(16.0, true);
  const auto serial = run_transfer_point(16.0, false);
  const bool overlap_wins = overlapped.overlapped_ns < overlapped.serial_ns;
  const bool serial_exact = serial.overlapped_ns == serial.serial_ns;
  transfer_ok = transfer_ok && overlap_wins && serial_exact &&
                saw_transfer_bound && saw_compute_bound;
  std::printf("{\"bench\":\"transfer_overlap\",\"bandwidth_gbs\":16.0,"
              "\"double_buffered_ns\":%.0f,\"serial_ns\":%.0f,"
              "\"saved_ns\":%.0f,\"overlap_wins\":%s,"
              "\"single_buffer_matches_serial\":%s,"
              "\"both_regimes_seen\":%s}\n",
              overlapped.overlapped_ns, overlapped.serial_ns,
              overlapped.serial_ns - overlapped.overlapped_ns,
              overlap_wins ? "true" : "false",
              serial_exact ? "true" : "false",
              saw_transfer_bound && saw_compute_bound ? "true" : "false");

  if (!metrics_path.empty()) {
    std::ofstream metrics_out(metrics_path);
    pim::obs::write_json_lines(sched_registry.scrape(), metrics_out);
    pim::obs::write_json_lines(fleet_registry.scrape(), metrics_out);
    std::printf("\nregistry snapshots -> %s\n", metrics_path.c_str());
  }
  return (fleet_ok && stream_ok && scaling_ok && transfer_ok) ? 0 : 1;
}
