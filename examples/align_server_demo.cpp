// Serving quickstart (S41): stand up an AlignmentService over a software
// engine and hammer it from concurrent client threads with mixed priority
// classes and deadlines. Self-contained — synthesizes a reference and reads,
// no input files.
//
//   ./align_server_demo [clients] [requests_per_client] [--metrics=PATH]
//
// Prints the per-class outcome tally, the serve.* latency percentiles
// (p50/p95/p99 via HistogramSample::percentile), the dynamic batcher's
// coalescing statistics, and — with per-request tracing installed (S45) —
// the slowest request's full phase timeline and latency attribution, so
// the tail percentile comes with a concrete "where did the time go". A second phase (S42) demonstrates multi-reference
// serving: three persisted index artifacts behind an IndexCache capped at
// two resident, requests routed by reference_id, LRU eviction observable in
// the service.index_cache.* series. A third phase (S46) puts the same
// service behind a real socket: net::AlignServer on 127.0.0.1, concurrent
// net::AlignClient round trips (one with want_sam, rendered server-side),
// SIGINT/SIGTERM routed to a graceful drain via
// install_stop_signal_handlers — press Ctrl-C during the wire phase and
// in-flight requests still complete before the listener goes away.
// --metrics=PATH writes the full registry snapshot as JSON lines
// afterwards (serve.*, service.index_cache.*, and net.* series together).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/align/engine.h"
#include "src/genome/synthetic_genome.h"
#include "src/index/fm_index.h"
#include "src/index/index_io.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/obs/reporter.h"
#include "src/obs/request_trace.h"
#include "src/serve/index_cache.h"
#include "src/serve/service.h"
#include "src/util/rng.h"

namespace {

using namespace std::chrono_literals;
using pim::genome::Base;

std::vector<std::vector<Base>> make_reads(
    const pim::genome::PackedSequence& reference, std::size_t count) {
  pim::util::Xoshiro256 rng(7);
  std::vector<std::vector<Base>> reads;
  reads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = 80;
    const std::size_t start = rng.bounded(reference.size() - len);
    std::vector<Base> read = reference.slice(start, start + len);
    if (i % 3 == 1) {  // a third carry one substitution (inexact stage)
      const std::size_t pos = rng.bounded(read.size());
      read[pos] = pim::genome::complement(read[pos]);
    }
    if (i % 2 == 1) read = pim::genome::reverse_complement(read);
    reads.push_back(std::move(read));
  }
  return reads;
}

// S45: the slowest completed request, phase by phase. Timestamps print as
// offsets from its own submit, the attribution as the per-segment durations
// that sum exactly to the end-to-end total.
void print_slowest_request(const pim::obs::RequestTracer& tracer) {
  const auto slowest = tracer.slowest();
  if (slowest.empty()) return;
  const pim::obs::RequestTrace& trace = slowest.front();
  const pim::obs::LatencyBreakdown b = pim::obs::breakdown_of(trace);
  std::printf("slowest request: id=%llu %.3fms total (%s, batch #%llu with "
              "%u co-requests / %llu reads)\n",
              static_cast<unsigned long long>(trace.id), b.total_ms,
              trace.priority == 0 ? "interactive" : "batch",
              static_cast<unsigned long long>(trace.batch_seq),
              trace.batch_requests,
              static_cast<unsigned long long>(trace.batch_reads));
  std::printf("  timeline:");
  const double submit_ms = trace.at(pim::obs::RequestPhase::kSubmit);
  for (std::size_t i = 0; i < pim::obs::kNumRequestPhases; ++i) {
    const auto phase = static_cast<pim::obs::RequestPhase>(i);
    if (!trace.has(phase)) continue;
    std::printf(" %s+%.3fms", pim::obs::to_string(phase),
                trace.at(phase) - submit_ms);
  }
  std::printf("\n  attribution: admit %.3f, queue %.3f, seal %.3f, dispatch "
              "%.3f, compute %.3f, drain %.3f ms (stall %.3f)\n",
              b.admit_ms, b.queue_ms, b.seal_ms, b.dispatch_ms, b.compute_ms,
              b.drain_ms, b.stall_ms);
}

// Phase 2 (S42): persisted artifacts + IndexCache + reference_id routing.
// Three references, two resident slots — serving the third evicts the
// least-recently-used lane, which the next round trip then reloads (misses
// and evictions both land in service.index_cache.*).
int run_multi_reference_phase(pim::obs::MetricsRegistry& registry,
                              pim::obs::RequestTracer& tracer,
                              std::size_t clients, std::size_t per_client) {
  using namespace pim;
  std::printf("\n--- multi-reference serving (IndexCache, max_resident=2) "
              "---\n");
  const std::vector<std::string> ids = {"chrA", "chrB", "chrC"};
  std::vector<genome::PackedSequence> references;
  serve::IndexCacheOptions cache_options;
  cache_options.max_resident = 2;
  cache_options.metrics = &registry;
  serve::IndexCache cache(cache_options);
  for (std::size_t r = 0; r < ids.size(); ++r) {
    genome::SyntheticGenomeSpec spec;
    spec.length = 60000;
    spec.seed = 40 + static_cast<std::uint64_t>(r);
    references.push_back(genome::generate_reference(spec));
    const auto fm =
        index::FmIndex::build(references[r], {.bucket_width = 128});
    const std::string path = "/tmp/pim_serve_" + ids[r] + ".index";
    index::save_index_file(path, fm, {{ids[r], 0, references[r].size()}});
    cache.add_reference(ids[r], path);
  }

  serve::MultiReferenceOptions options;
  options.aligner.inexact.max_diffs = 2;
  options.service.batching.max_linger = 500us;
  options.service.metrics = &registry;
  // The shared tracer keeps request ids globally unique across lanes.
  options.service.tracer = &tracer;
  serve::AlignmentService service(cache, options);

  std::vector<std::vector<std::vector<Base>>> pools;
  pools.reserve(ids.size());
  for (const auto& reference : references) {
    pools.push_back(make_reads(reference, 512));
  }

  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> ok{0}, failed{0};
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      pim::util::Xoshiro256 rng(300 + c);
      for (std::size_t i = 0; i < per_client; ++i) {
        // Stride across references so lanes interleave and the LRU order
        // keeps changing; each client checks placements land in range.
        const std::size_t r = (c + i) % ids.size();
        serve::AlignRequest request;
        request.reference_id = ids[r];
        const std::size_t size = 1 + rng.bounded(4);
        const std::size_t begin = rng.bounded(pools[r].size() - size);
        request.reads.assign(
            pools[r].begin() + static_cast<std::ptrdiff_t>(begin),
            pools[r].begin() + static_cast<std::ptrdiff_t>(begin + size));
        auto response = service.submit(std::move(request)).get();
        if (response.ok()) {
          ok.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // One misrouted request to show the fail-fast path.
  serve::AlignRequest bogus;
  bogus.reference_id = "chrZ";
  bogus.reads.push_back(pools[0][0]);
  const auto rejected = service.align(std::move(bogus));
  std::printf("routing chrZ: %s (\"%s\")\n",
              rejected.status == serve::RequestStatus::kRejected ? "rejected"
                                                                 : "UNEXPECTED",
              rejected.reason.c_str());

  service.shutdown();
  const auto stats = cache.stats();
  std::printf("outcomes: ok=%llu failed=%llu across %zu references\n",
              static_cast<unsigned long long>(ok.load()),
              static_cast<unsigned long long>(failed.load()), ids.size());
  std::printf("index cache: hits=%llu misses=%llu evictions=%llu "
              "resident=%zu (%llu bytes)\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions),
              stats.resident,
              static_cast<unsigned long long>(stats.resident_bytes));
  const bool cache_ok = stats.misses >= ids.size() && stats.evictions > 0;
  if (!cache_ok) std::printf("UNEXPECTED: cache never cycled residents\n");
  return ok.load() > 0 && failed.load() == 0 &&
                 rejected.status == serve::RequestStatus::kRejected && cache_ok
             ? 0
             : 1;
}

// Phase 3 (S46): the same stack behind a real socket. An AlignServer wraps
// the service on an ephemeral loopback port, SIGINT/SIGTERM are routed to
// request_stop() (async-signal-safe eventfd write → graceful drain: stop
// accepting, finish in-flight work, flush responses), and concurrent
// AlignClient threads drive 2-bit-packed requests over the wire. One
// request asks for server-side SAM rendering; every response carries the
// S45 latency breakdown with the new kRecv ingress segment in front.
int run_wire_phase(pim::obs::MetricsRegistry& registry,
                   const pim::align::AlignmentEngine& engine,
                   const pim::genome::PackedSequence& reference,
                   const std::vector<std::vector<Base>>& pool,
                   std::size_t clients, std::size_t per_client) {
  using namespace pim;
  std::printf("\n--- serving over the wire (net::AlignServer) ---\n");

  obs::RequestTracer tracer({.registry = &registry});
  serve::ServiceOptions options;
  options.admission.max_queued_reads = 4096;
  options.batching.max_linger = 500us;
  options.metrics = &registry;
  options.tracer = &tracer;
  serve::AlignmentService service(engine, options);

  net::AlignServer::Options server_options;
  server_options.metrics = &registry;
  server_options.sam_sources[""] = {"demo_ref", &reference};
  net::AlignServer server(service, server_options);
  server.start();
  net::install_stop_signal_handlers(&server);
  std::printf("listening on 127.0.0.1:%u (Ctrl-C / SIGTERM = graceful "
              "drain: in-flight requests complete, then the socket closes)\n",
              server.port());

  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> ok{0}, shed{0}, errors{0};
  std::atomic<std::uint64_t> recv_us_sum{0}, total_us_sum{0};
  std::mutex sam_mu;
  std::string sam_preview;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::AlignClient::Options client_options;
      client_options.port = server.port();
      net::AlignClient client(client_options);
      pim::util::Xoshiro256 rng(500 + c);
      for (std::size_t i = 0; i < per_client && server.running(); ++i) {
        const std::size_t size = 1 + rng.bounded(8);
        const std::size_t begin = rng.bounded(pool.size() - size);
        net::WireAlignRequest request;
        request.reads.assign(
            pool.begin() + static_cast<std::ptrdiff_t>(begin),
            pool.begin() + static_cast<std::ptrdiff_t>(begin + size));
        if (i % 3 == 0) request.priority = 0;  // interactive
        if (i % 2 == 0) request.deadline_budget = 2s;
        request.want_sam = (c == 0 && i == 0);
        try {
          const net::WireAlignResponse response = client.align(request);
          if (response.ok()) {
            ok.fetch_add(1);
            recv_us_sum.fetch_add(static_cast<std::uint64_t>(
                response.breakdown.recv_ms * 1000.0));
            total_us_sum.fetch_add(static_cast<std::uint64_t>(
                response.breakdown.total_ms * 1000.0));
            if (request.want_sam && !response.sam.empty()) {
              std::lock_guard<std::mutex> lk(sam_mu);
              sam_preview = response.sam.substr(0, response.sam.find('\n'));
            }
          } else {
            shed.fetch_add(1);
          }
        } catch (const std::exception& e) {
          // A drain racing this round trip closes the connection; anything
          // else is a real transport failure.
          if (server.running()) {
            errors.fetch_add(1);
            std::fprintf(stderr, "wire client %zu: %s\n", c, e.what());
          }
          break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  server.stop();
  net::install_stop_signal_handlers(nullptr);
  service.shutdown();

  const double n = ok.load() > 0 ? static_cast<double>(ok.load()) : 1.0;
  std::printf("wire outcomes: ok=%llu shed=%llu errors=%llu; mean "
              "server-side total %.3fms (recv %.3fms of it)\n",
              static_cast<unsigned long long>(ok.load()),
              static_cast<unsigned long long>(shed.load()),
              static_cast<unsigned long long>(errors.load()),
              static_cast<double>(total_us_sum.load()) / 1000.0 / n,
              static_cast<double>(recv_us_sum.load()) / 1000.0 / n);
  if (!sam_preview.empty()) {
    std::printf("server-rendered SAM (first record): %s\n",
                sam_preview.c_str());
  }
  const auto snapshot = registry.scrape();
  std::printf(
      "net.*: accepted=%llu requests=%llu frames_in=%llu frames_out=%llu "
      "bytes_in=%llu bytes_out=%llu decode_errors=%llu\n",
      static_cast<unsigned long long>(snapshot.counter_value("net.accepted")),
      static_cast<unsigned long long>(snapshot.counter_value("net.requests")),
      static_cast<unsigned long long>(snapshot.counter_value("net.frames_in")),
      static_cast<unsigned long long>(
          snapshot.counter_value("net.frames_out")),
      static_cast<unsigned long long>(snapshot.counter_value("net.bytes_in")),
      static_cast<unsigned long long>(snapshot.counter_value("net.bytes_out")),
      static_cast<unsigned long long>(
          snapshot.counter_value("net.decode_errors")));
  return ok.load() > 0 && errors.load() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else {
      positional.push_back(arg);
    }
  }
  const std::size_t clients =
      !positional.empty() ? static_cast<std::size_t>(std::stoul(positional[0]))
                          : 4;
  const std::size_t per_client =
      positional.size() > 1
          ? static_cast<std::size_t>(std::stoul(positional[1]))
          : 64;

  // Reference + index + engine: the same stack every other front-end uses.
  pim::genome::SyntheticGenomeSpec spec;
  spec.length = 200000;
  spec.seed = 3;
  const auto reference = pim::genome::generate_reference(spec);
  const auto fm = pim::index::FmIndex::build(reference, {.bucket_width = 128});
  pim::align::AlignerOptions aligner_options;
  aligner_options.inexact.max_diffs = 2;
  pim::align::SoftwareEngine engine(fm, aligner_options);

  // The service: bounded queue (load shedding), 1ms linger, serve.* metrics,
  // and per-request tracing (S45) feeding serve.phase.* plus the slowest-K
  // exemplar buffer printed after the run.
  pim::obs::MetricsRegistry registry;
  pim::obs::RequestTracer tracer({.registry = &registry});
  pim::serve::ServiceOptions options;
  options.admission.max_queued_requests = 256;
  options.admission.max_queued_reads = 8192;
  options.batching.max_batch_reads = 256;
  options.batching.max_linger = 1000us;
  options.metrics = &registry;
  options.tracer = &tracer;
  pim::serve::AlignmentService service(engine, options);

  const auto pool = make_reads(reference, 4096);
  std::printf("align_server_demo: %zu clients x %zu requests over %s\n",
              clients, per_client, std::string(engine.name()).c_str());

  // Concurrent clients: every third request is interactive, half carry a
  // (generous) deadline. Each client checks its own responses.
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> ok{0}, failed{0}, aligned_reads{0};
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      pim::util::Xoshiro256 rng(100 + c);
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::size_t size = 1 + rng.bounded(8);
        const std::size_t begin = rng.bounded(pool.size() - size);
        pim::serve::AlignRequest request;
        request.reads.assign(
            pool.begin() + static_cast<std::ptrdiff_t>(begin),
            pool.begin() + static_cast<std::ptrdiff_t>(begin + size));
        if (i % 3 == 0) {
          request.priority = pim::serve::RequestPriority::kInteractive;
        }
        if (i % 2 == 0) request.deadline = pim::serve::deadline_in(2s);
        auto response = service.submit(std::move(request)).get();
        if (response.ok()) {
          ok.fetch_add(1);
          for (const auto& result : response.results) {
            if (result.stage != pim::align::AlignmentStage::kUnaligned) {
              aligned_reads.fetch_add(1);
            }
          }
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  service.shutdown();

  const auto counters = service.counters();
  std::printf("\noutcomes: ok=%llu failed=%llu (submitted=%llu admitted=%llu "
              "rejected=%llu expired=%llu)\n",
              static_cast<unsigned long long>(ok.load()),
              static_cast<unsigned long long>(failed.load()),
              static_cast<unsigned long long>(counters.submitted),
              static_cast<unsigned long long>(counters.admitted),
              static_cast<unsigned long long>(counters.rejected),
              static_cast<unsigned long long>(counters.expired));
  std::printf("batching: %llu batches, %.1f reads/batch avg "
              "(max_batch_reads=%zu)\n",
              static_cast<unsigned long long>(counters.batches),
              counters.batches ? static_cast<double>(counters.batched_reads) /
                                     static_cast<double>(counters.batches)
                               : 0.0,
              options.batching.max_batch_reads);
  std::printf("aligned reads: %llu / %llu\n",
              static_cast<unsigned long long>(aligned_reads.load()),
              static_cast<unsigned long long>(counters.batched_reads));

  // Scrapeable latency shape: any quantile is computable from the merged
  // bucket counts, not just the precomputed four.
  const auto snapshot = registry.scrape();
  for (const char* name : {"serve.queue_wait_ms", "serve.latency_ms"}) {
    const auto* h = snapshot.histogram(name);
    if (h == nullptr || h->count == 0) continue;
    std::printf("%s: n=%llu mean=%.3fms p50=%.3f p95=%.3f p99=%.3f "
                "p99.9=%.3f max=%.3f\n",
                name, static_cast<unsigned long long>(h->count), h->mean(),
                h->percentile(0.50), h->percentile(0.95), h->percentile(0.99),
                h->percentile(0.999), h->max);
  }
  if (const auto* fill = snapshot.histogram("serve.batch_fill")) {
    std::printf("serve.batch_fill: p50=%.2f p95=%.2f (1.0 = full batch)\n",
                fill->percentile(0.5), fill->percentile(0.95));
  }
  if (const auto* phase = snapshot.histogram("serve.phase.compute_ms")) {
    std::printf("serve.phase.compute_ms: n=%llu mean=%.3fms p99=%.3f\n",
                static_cast<unsigned long long>(phase->count), phase->mean(),
                phase->percentile(0.99));
  }
  print_slowest_request(tracer);
  const int single_rc = ok.load() > 0 && failed.load() == 0 ? 0 : 1;

  const int multi_rc =
      run_multi_reference_phase(registry, tracer, clients, per_client);

  const int wire_rc =
      run_wire_phase(registry, engine, reference, pool, clients, per_client);

  if (!metrics_path.empty()) {
    std::ofstream metrics_out(metrics_path);
    pim::obs::write_json_lines(registry.scrape(), metrics_out);
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }
  return single_rc == 0 && multi_rc == 0 && wire_rc == 0 ? 0 : 1;
}
