// net::AlignServer (S46): the serving stack's host boundary.
//
// One epoll, level-triggered event loop on its own thread; per-connection
// state machines reassemble frames incrementally (FrameDecoder), decode
// align requests, and submit them into a serve::AlignmentService. The loop
// NEVER blocks on a response future: AlignRequest::on_complete (the S46
// non-blocking completion hook) pushes the request's token onto a
// completion queue and nudges an eventfd, and the loop encodes + queues
// the response frame on its next pass. So one thread multiplexes every
// connection while the batcher threads do the actual aligning — the same
// shape as the UPMEM host runtimes that feed rank dispatch queues from a
// socket front-end.
//
// Flow control and hygiene:
//   * bounded per-connection write queues: a client that stops reading has
//     its EPOLLIN disarmed once the queue passes the bound (backpressure),
//     rearmed below half;
//   * idle timeout: connections with no traffic and nothing in flight are
//     closed after Options::idle_timeout;
//   * malformed frames never crash the server: a frame-layer error (bad
//     magic/version/oversized length/checksum) gets an error frame naming
//     the offending field and the connection is closed (the byte stream
//     has desynced); a payload-layer error (bad priority, truncated reads)
//     gets an error frame and the connection stays open;
//   * graceful drain (SIGTERM/SIGINT via install_stop_signal_handlers, or
//     stop()): stop accepting, stop reading, keep completing in-flight
//     futures and flushing responses until done or Options::drain_timeout,
//     then close. Pairs with AlignmentService::shutdown(kDrain), which the
//     owner calls after stop() returns.
//
// Everything the loop touches is loop-thread-only; the only cross-thread
// structures are the completion queue (mutex + eventfd) and the atomics
// behind running()/port() — which is what keeps the ≥6-connection TSan
// test quiet.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/genome/multi_reference.h"
#include "src/genome/packed_sequence.h"
#include "src/net/frame.h"
#include "src/obs/metrics.h"
#include "src/serve/service.h"

namespace pim::net {

/// net.* metric handles (S40 registry); inert without a registry.
struct NetMetrics {
  obs::Gauge connections;        ///< Currently open connections.
  obs::Counter accepted;         ///< Connections accepted.
  obs::Counter closed;           ///< Connections closed (any cause).
  obs::Counter frames_in;        ///< Complete frames decoded.
  obs::Counter frames_out;       ///< Frames queued for send.
  obs::Counter bytes_in;         ///< Bytes read off sockets.
  obs::Counter bytes_out;        ///< Bytes written to sockets.
  obs::Counter decode_errors;    ///< Frame- or payload-layer rejections.
  obs::Counter requests;         ///< Align requests submitted to the service.
  obs::Histogram write_queue_depth;  ///< Queued bytes at response enqueue.

  static NetMetrics install(obs::MetricsRegistry* registry);
};

class AlignServer {
 public:
  /// Reference material for server-side SAM rendering (want_sam requests).
  /// The PackedSequence must outlive the server. A multi-chromosome
  /// reference passes its chromosome table (it must tile the reference) and
  /// gets per-chromosome RNAME/POS; without one, every record is named
  /// `reference_name`.
  struct SamSource {
    std::string reference_name;
    const genome::PackedSequence* reference = nullptr;
    std::vector<genome::Chromosome> chromosomes = {};
  };

  struct Options {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; read the bound one via port().
    std::size_t max_payload_bytes = kDefaultMaxPayloadBytes;
    /// Backpressure bound: once a connection's unsent response bytes pass
    /// this, its reads are disarmed until the queue drains below half.
    std::size_t max_write_queue_bytes = 4u << 20;
    /// Close connections with no traffic and nothing in flight after this
    /// long. 0 = never.
    std::chrono::milliseconds idle_timeout{0};
    /// Graceful-drain budget: how long stop() keeps flushing in-flight
    /// responses before force-closing.
    std::chrono::milliseconds drain_timeout{10000};
    obs::MetricsRegistry* metrics = nullptr;
    /// reference_id -> SAM source. A single-reference service registers its
    /// one source under "" (the empty reference_id its requests carry).
    std::map<std::string, SamSource> sam_sources;
  };

  /// `service` must outlive the server. The service should have a tracer
  /// installed if wire responses are to carry meaningful breakdowns.
  AlignServer(serve::AlignmentService& service, Options options);
  ~AlignServer();

  AlignServer(const AlignServer&) = delete;
  AlignServer& operator=(const AlignServer&) = delete;

  /// Bind, listen, and start the event loop thread. Throws
  /// std::runtime_error on bind/listen failure.
  void start();

  /// The bound port (valid after start(); useful with Options::port == 0).
  std::uint16_t port() const;

  /// Graceful drain, then join the loop thread. Safe to call from any
  /// thread (including concurrently); idempotent.
  void stop();

  /// Async drain trigger — async-signal-safe (one write() to an eventfd).
  /// The loop drains and exits; a later stop() joins it.
  void request_stop() noexcept;

  bool running() const;

  /// Open connections right now (loop-published, approximate off-thread).
  std::size_t connections() const;

 private:
  friend void install_stop_signal_handlers(AlignServer* server);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Route SIGTERM and SIGINT to `server.request_stop()` — the handler is one
/// async-signal-safe eventfd write, so demo binaries and the real server
/// share a single shutdown story. Only one server can be registered at a
/// time; registering another replaces the previous routing. Pass nullptr
/// to restore the default handlers.
void install_stop_signal_handlers(AlignServer* server);

}  // namespace pim::net
