// wire_paced: paper-mix reads sent to an in-process net::AlignServer over
// a serve::AlignmentService(SoftwareEngine) on loopback, with want_sam set.
//
// Load is an open loop from one generator thread at a fixed absolute rate:
// request k is due at start + k / kRequestsPerSecond whether or not earlier
// ones have returned, and its latency is timed from that due time, so a
// stall is charged to every request it delays. The rate is a constant, set
// once under half the service's capacity in the host's slowest phases (see
// README.md); it is never recalibrated, so a faster engine shows up as
// lower latency rather than as more offered load.
//
// Unlike the other workloads' time metrics, the latencies are not scaled by
// a HostProbe: the engine works on three worker threads on other vCPUs than
// the generator, where a probe could run, and scaling by the generator's
// vCPU added noise (ten-seed p99 spread 0.112 scaled, 0.085 raw).
// setup_s is scaled as everywhere.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "src/align/sam_writer.h"
#include "src/net/frame.h"
#include "src/net/server.h"
#include "src/obs/request_trace.h"
#include "src/serve/service.h"

namespace perfbench {

namespace {

namespace net = pim::net;
namespace serve = pim::serve;
namespace obs = pim::obs;

constexpr std::size_t kReadsPerRequest = 8;
/// Offered load, fixed: 800 reads/s. The stack aligns about 4600 paper-mix
/// reads/s on a quiet 4-vCPU x86-64 VM, and the shared host runs up to 2.6x
/// slower at times; at 16-read requests and 100/s such a phase pushed the
/// stack to its edge (p99 rose fourfold and it fell behind the schedule).
/// 8-read requests keep utilization under half even then, so latency tracks
/// service time rather than a queue on the edge of overload.
constexpr double kRequestsPerSecond = 100.0;
/// Requests at the start of a run that warm the stack and are not timed.
constexpr std::size_t kWarmupRequests = 100;

/// Engine + service + server, torn down in reverse order.
struct Stack {
  std::unique_ptr<index::FmIndex> fm;
  std::unique_ptr<align::SoftwareEngine> software;
  std::unique_ptr<TimedEngine> engine;
  std::unique_ptr<obs::RequestTracer> tracer;
  std::unique_ptr<serve::AlignmentService> service;
  std::unique_ptr<net::AlignServer> server;

  ~Stack() {
    if (server) server->stop();
    if (service) service->shutdown();
  }
};

std::unique_ptr<Stack> start_stack(const Inputs& in, const Args& args) {
  auto s = std::make_unique<Stack>();
  s->fm = std::make_unique<index::FmIndex>(index::FmIndex::build(in.reference));
  s->software =
      std::make_unique<align::SoftwareEngine>(*s->fm, aligner_options());
  s->engine = std::make_unique<TimedEngine>(*s->software, args.inject_mismatch);
  serve::ServiceOptions options;
  options.batching.max_batch_reads = 4 * kReadsPerRequest;
  options.batching.max_linger = std::chrono::microseconds(500);
  options.batching.parallel.num_threads = 3;
  options.batching.parallel.chunk_size = 4;
  if (args.trace) {
    s->tracer = std::make_unique<obs::RequestTracer>();
    options.tracer = s->tracer.get();
  }
  s->service = std::make_unique<serve::AlignmentService>(*s->engine, options);
  net::AlignServer::Options server_options;
  server_options.sam_sources[""] = {"ref", &in.reference};
  s->server = std::make_unique<net::AlignServer>(*s->service, server_options);
  s->server->start();
  return s;
}

/// One request as the generator saw it.
struct Sample {
  Clock::time_point due, sent, received;
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
  net::WireAlignResponse response;
  bool answered = false;
};

/// Non-blocking loopback connection driven by one thread: writes each
/// pre-encoded frame when it falls due, reads responses whenever they come.
class OpenLoop {
 public:
  explicit OpenLoop(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~OpenLoop() { ::close(fd_); }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Send frames[k] at start + k / rate; return when every response has
  /// arrived or `timeout` passed since the last send.
  void run(const std::vector<std::vector<std::uint8_t>>& frames,
           std::vector<Sample>& samples, std::chrono::seconds timeout) {
    const std::size_t total = frames.size();
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    const auto period = std::chrono::duration<double>(1.0 / kRequestsPerSecond);
    auto due = [&](std::size_t k) {
      return start + std::chrono::duration_cast<Clock::duration>(period * k);
    };
    std::size_t next = 0, answered = 0;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::vector<std::uint8_t> in(1 << 16);
    net::FrameDecoder decoder;
    net::Frame frame;
    while (answered < total) {
      auto now = Clock::now();
      for (; next < total && due(next) <= now; ++next) {
        samples[next].due = due(next);
        samples[next].sent = now;
        samples[next].request_bytes = frames[next].size();
        out.insert(out.end(), frames[next].begin(), frames[next].end());
      }
      while (out_off < out.size()) {
        const ssize_t n = ::send(fd_, out.data() + out_off,
                                 out.size() - out_off, MSG_NOSIGNAL);
        if (n <= 0) {
          if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
          throw std::runtime_error("send failed");
        }
        out_off += static_cast<std::size_t>(n);
      }
      if (out_off == out.size()) out.clear(), out_off = 0;

      now = Clock::now();
      if (next == total && now > due(total - 1) + timeout) {
        throw std::runtime_error("responses missing after timeout");
      }
      const auto wake = next < total ? due(next) : now + timeout;
      const auto wait_ns = std::max<std::int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
                 .count());
      const timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                        static_cast<long>(wait_ns % 1000000000)};
      pollfd pfd{fd_, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
                 0};
      if (::ppoll(&pfd, 1, &ts, nullptr) < 0 && errno != EINTR) {
        throw std::runtime_error("poll failed");
      }
      if ((pfd.revents & (POLLERR | POLLHUP)) != 0) {
        throw std::runtime_error("server closed the connection");
      }
      if ((pfd.revents & POLLIN) == 0) continue;
      const ssize_t n = ::recv(fd_, in.data(), in.size(), 0);
      if (n == 0) throw std::runtime_error("server closed the connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) continue;
        throw std::runtime_error("recv failed");
      }
      const auto received = Clock::now();
      decoder.feed(in.data(), static_cast<std::size_t>(n));
      for (;;) {
        const auto r = decoder.next(frame);
        if (r == net::FrameDecoder::Result::kNeedMore) break;
        if (r == net::FrameDecoder::Result::kError) {
          throw std::runtime_error("bad response frame: " +
                                   decoder.error_field());
        }
        if (frame.request_id >= total || samples[frame.request_id].answered) {
          throw std::runtime_error("unexpected response id");
        }
        Sample& s = samples[frame.request_id];
        s.received = received;
        s.response_bytes = net::kHeaderBytes + frame.payload.size();
        std::string field;
        if (frame.type != net::FrameType::kAlignResponse ||
            !net::decode_align_response(frame.payload, &s.response, &field)) {
          s.response.status = net::kWireStatusError;
        }
        s.answered = true;
        ++answered;
      }
    }
  }

 private:
  int fd_ = -1;
};

/// Primary (non-secondary) records in a response's SAM text.
std::size_t primary_records(const std::string& sam) {
  std::size_t count = 0;
  std::size_t pos = 0;
  while (pos < sam.size()) {
    auto end = sam.find('\n', pos);
    if (end == std::string::npos) end = sam.size();
    const std::string_view line(sam.data() + pos, end - pos);
    const auto t1 = line.find('\t');
    if (!line.empty() && line[0] != '@' && t1 != std::string_view::npos) {
      const unsigned flag = static_cast<unsigned>(std::strtoul(
          std::string(line.substr(t1 + 1, 8)).c_str(), nullptr, 10));
      if ((flag & align::SamRecord::kFlagSecondary) == 0) ++count;
    }
    pos = end + 1;
  }
  return count;
}

double ms_of(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

void run_wire_workload(const WorkloadSpec& spec, const Args& args,
                       Report& report) {
  std::size_t pool = args.reads != 0 ? args.reads : spec.pool_reads;
  pool -= pool % kReadsPerRequest;
  if (pool == 0) {
    throw std::invalid_argument("wire_paced needs at least " +
                                std::to_string(kReadsPerRequest) + " reads");
  }
  const Inputs in = make_inputs(spec, args.seed, pool);
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu reads, digest %016llx\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               pool, static_cast<unsigned long long>(in.digest));

  std::unique_ptr<Stack> stack;
  if (args.trace) {
    const auto t0 = Clock::now();
    stack = start_stack(in, args);
    report.set("index.build_ms", ms_since(t0));
  } else {
    report.set("setup_s",
               median_setup_s(stack, [&] { return start_stack(in, args); }));
  }
  const align::BatchResult expected =
      compute_expected(*stack->fm, in, 0, pool);

  // The program's input: pre-encoded request frames, reads cycling
  // through the pool.
  const std::size_t requests =
      kWarmupRequests +
      static_cast<std::size_t>(args.seconds * kRequestsPerSecond);
  std::vector<std::vector<std::uint8_t>> frames(requests);
  auto first_read = [&](std::size_t k) {
    return (k * kReadsPerRequest) % pool;
  };
  for (std::size_t k = 0; k < requests; ++k) {
    net::WireAlignRequest request;
    request.want_sam = true;
    request.reads =
        in.read_vectors(first_read(k), first_read(k) + kReadsPerRequest);
    frames[k] = net::encode_frame(net::FrameType::kAlignRequest, k,
                                  net::encode_align_request(request));
  }

  std::vector<Sample> samples(requests);
  try {
    OpenLoop(stack->server->port())
        .run(frames, samples, std::chrono::seconds(30));
  } catch (const std::exception& e) {
    report.fail(std::string("wire: ") + e.what());
    report.correct = false;
  }

  // Check every response against the in-process engine.
  std::vector<std::optional<align::AlignmentHit>> primaries(pool);
  std::vector<char> answered(pool, 0);
  std::vector<double> latency, lag, transit;
  std::vector<double> admit, queue, compute, drain, recv;
  double request_bytes = 0, response_bytes = 0;
  std::size_t measured_reads = 0;
  Clock::time_point window_end{};
  for (std::size_t k = 0; k < requests; ++k) {
    const Sample& s = samples[k];
    ++report.attempted;
    const auto& r = s.response;
    bool ok = s.answered && r.ok() && r.results.size() == kReadsPerRequest &&
              primary_records(r.sam) == kReadsPerRequest;
    for (std::size_t j = 0; ok && j < kReadsPerRequest; ++j) {
      const std::size_t read = first_read(k) + j;
      ok = same_hits(expected, read, r.results[j].hits);
      primaries[read] = r.results[j].best();
      answered[read] = 1;
    }
    if (!ok) {
      report.fail("wire request " + std::to_string(k) + " failed (" +
                  (s.answered ? net::wire_status_name(r.status) : "no answer") +
                  ")");
      continue;
    }
    if (k < kWarmupRequests) continue;
    measured_reads += kReadsPerRequest;
    window_end = std::max(window_end, s.received);
    latency.push_back(ms_of(s.received - s.due));
    lag.push_back(ms_of(s.sent - s.due));
    transit.push_back(ms_of(s.received - s.sent) - r.breakdown.total_ms);
    admit.push_back(r.breakdown.admit_ms);
    queue.push_back(r.breakdown.queue_ms);
    compute.push_back(r.breakdown.compute_ms);
    drain.push_back(r.breakdown.drain_ms);
    recv.push_back(r.breakdown.recv_ms);
    request_bytes += static_cast<double>(s.request_bytes);
    response_bytes += static_cast<double>(s.response_bytes);
  }
  if (report.failed != 0) report.correct = false;
  std::size_t good = 0, seen = 0;
  for (std::size_t i = 0; i < pool; ++i) {
    if (answered[i] == 0) continue;
    ++seen;
    good += placed_correctly(in.reads.reads[i], primaries[i]);
  }
  const double n =
      static_cast<double>(std::max<std::size_t>(1, latency.size()));
  std::fprintf(stderr,
               "perfbench: %zu requests timed, generator lag p99 %.3f ms\n",
               latency.size(), percentile(lag, 0.99));

  if (!args.trace) {
    const double window_s =
        latency.empty()
            ? 1.0
            : ms_of(window_end - samples[kWarmupRequests].due) / 1000.0;
    report.set("reads_per_s", static_cast<double>(measured_reads) / window_s);
    report.set("latency_p50_ms", percentile(latency, 0.50));
    report.set("latency_p99_ms", percentile(latency, 0.99));
    report.set("mapped_correct_frac",
               static_cast<double>(good) /
                   static_cast<double>(std::max<std::size_t>(1, seen)));
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  report.set("serve.admit_ms.p50", percentile(admit, 0.50));
  report.set("serve.admit_ms.p99", percentile(admit, 0.99));
  report.set("serve.queue_ms.p50", percentile(queue, 0.50));
  report.set("serve.queue_ms.p99", percentile(queue, 0.99));
  report.set("serve.compute_ms.p50", percentile(compute, 0.50));
  report.set("serve.compute_ms.p99", percentile(compute, 0.99));
  report.set("serve.drain_ms.p50", percentile(drain, 0.50));
  report.set("serve.drain_ms.p99", percentile(drain, 0.99));
  report.set("net.recv_ms.p50", percentile(recv, 0.50));
  report.set("net.transit_ms.p50", percentile(transit, 0.50));
  report.set("net.transit_ms.p99", percentile(transit, 0.99));
  report.set("net.request_bytes", request_bytes / n);
  report.set("net.response_bytes", response_bytes / n);
  report.set("loadgen.sent", static_cast<double>(requests));
  report.set("loadgen.lag_ms.p99", percentile(lag, 0.99));

  const std::size_t traced = std::min(pool, spec.trace_reads);
  replay_reads(*stack->fm, in, traced, expected, args, report);
}

}  // namespace perfbench
