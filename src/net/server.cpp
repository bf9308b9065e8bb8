#include "src/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/align/sam_writer.h"

namespace pim::net {

namespace {

/// Tokens the batcher/submit threads push when a response future becomes
/// ready; the loop drains them on its next pass. Shared (via shared_ptr)
/// between the server and every in-flight on_complete callback, so a
/// callback firing during teardown still has a live queue to land on.
struct CompletionQueue {
  int event_fd = -1;
  std::mutex mu;
  std::vector<std::uint64_t> ready;

  CompletionQueue() { event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC); }
  ~CompletionQueue() {
    if (event_fd >= 0) ::close(event_fd);
  }

  void notify(std::uint64_t token) {
    {
      std::lock_guard<std::mutex> lk(mu);
      ready.push_back(token);
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(event_fd, &one, sizeof(one));  // EAGAIN = already signalled
  }

  std::vector<std::uint64_t> drain() {
    std::uint64_t counter = 0;
    while (::read(event_fd, &counter, sizeof(counter)) > 0) {
    }
    std::lock_guard<std::mutex> lk(mu);
    std::vector<std::uint64_t> out;
    out.swap(ready);
    return out;
  }
};

// epoll user-data markers for the non-connection fds; connections use their
// generation number (monotonic from 1).
constexpr std::uint64_t kListenMarker = ~std::uint64_t{0};
constexpr std::uint64_t kStopMarker = ~std::uint64_t{0} - 1;
constexpr std::uint64_t kWakeMarker = ~std::uint64_t{0} - 2;

}  // namespace

NetMetrics NetMetrics::install(obs::MetricsRegistry* registry) {
  NetMetrics m;
  if (registry == nullptr) return m;
  m.connections = registry->gauge("net.connections");
  m.accepted = registry->counter("net.accepted");
  m.closed = registry->counter("net.closed");
  m.frames_in = registry->counter("net.frames_in");
  m.frames_out = registry->counter("net.frames_out");
  m.bytes_in = registry->counter("net.bytes_in");
  m.bytes_out = registry->counter("net.bytes_out");
  m.decode_errors = registry->counter("net.decode_errors");
  m.requests = registry->counter("net.requests");
  m.write_queue_depth = registry->histogram("net.write_queue_depth");
  return m;
}

struct AlignServer::Impl {
  serve::AlignmentService* service;
  Options options;
  NetMetrics metrics;

  int listen_fd = -1;
  int epoll_fd = -1;
  int stop_fd = -1;  ///< eventfd; one write triggers graceful drain.
  std::shared_ptr<CompletionQueue> completions;

  std::thread loop_thread;
  std::mutex lifecycle_mu;
  bool started = false;
  bool joined = false;
  std::atomic<bool> running{false};
  std::atomic<std::uint16_t> bound_port{0};
  std::atomic<std::size_t> open_connections{0};

  struct Connection {
    int fd = -1;
    std::uint64_t gen = 0;
    FrameDecoder decoder;
    std::deque<std::vector<std::uint8_t>> write_queue;
    std::size_t write_offset = 0;  ///< Into write_queue.front().
    std::size_t queued_bytes = 0;
    bool read_armed = true;
    bool closing = false;  ///< Flush the write queue, then close.
    std::size_t in_flight = 0;
    std::chrono::steady_clock::time_point last_activity;
  };

  /// One submitted request the loop is waiting on. Keyed by completion
  /// token; carries the connection's generation so a response never lands
  /// on a recycled descriptor.
  struct Pending {
    std::uint64_t conn_gen = 0;
    std::uint64_t request_id = 0;
    bool want_sam = false;
    std::string reference_id;
    std::vector<std::vector<genome::Base>> reads;  ///< Kept only for SAM.
    serve::ResponseFuture future;
  };

  // Loop-thread-only state.
  std::unordered_map<std::uint64_t, Connection> conns;  ///< gen -> conn
  std::unordered_map<std::uint64_t, Pending> pending;   ///< token -> request
  std::uint64_t next_gen = 0;
  std::uint64_t next_token = 0;
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline;

  Impl(serve::AlignmentService& svc, Options opts)
      : service(&svc),
        options(std::move(opts)),
        metrics(NetMetrics::install(options.metrics)),
        completions(std::make_shared<CompletionQueue>()) {
    stop_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  }

  ~Impl() {
    if (stop_fd >= 0) ::close(stop_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (listen_fd >= 0) ::close(listen_fd);
  }

  void start();
  void loop();
  void accept_all(std::chrono::steady_clock::time_point now);
  void handle_read(Connection& conn,
                   std::chrono::steady_clock::time_point now);
  void handle_frame(Connection& conn, Frame&& frame,
                    std::chrono::steady_clock::time_point now);
  void process_completions(std::chrono::steady_clock::time_point now);
  void queue_frame(Connection& conn, std::vector<std::uint8_t> bytes);
  void send_error(Connection& conn, std::uint64_t request_id,
                  std::string field, std::string message);
  bool flush_writes(Connection& conn);
  void update_events(Connection& conn);
  void close_conn(std::uint64_t gen);
  void begin_drain(std::chrono::steady_clock::time_point now);
  void sweep_idle(std::chrono::steady_clock::time_point now);
  std::string render_sam(const Pending& p,
                         const std::vector<align::AlignmentResult>& results);
};

void AlignServer::Impl::start() {
  listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) throw std::runtime_error("net: socket() failed");
  const int enable = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    throw std::runtime_error("net: bad bind address '" + options.bind_address +
                             "'");
  }
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw std::runtime_error("net: bind to " + options.bind_address + ":" +
                             std::to_string(options.port) + " failed: " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd, 128) != 0) {
    throw std::runtime_error(std::string("net: listen failed: ") +
                             std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port.store(ntohs(bound.sin_port), std::memory_order_release);

  epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) throw std::runtime_error("net: epoll_create1 failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenMarker;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev);
  ev.data.u64 = kStopMarker;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, stop_fd, &ev);
  ev.data.u64 = kWakeMarker;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, completions->event_fd, &ev);

  running.store(true, std::memory_order_release);
  loop_thread = std::thread([this] { loop(); });
}

void AlignServer::Impl::loop() {
  epoll_event events[64];
  while (true) {
    const auto pre = std::chrono::steady_clock::now();
    int timeout_ms = -1;
    if (options.idle_timeout.count() > 0) {
      const auto half = options.idle_timeout.count() / 2;
      timeout_ms = static_cast<int>(half < 1 ? 1 : (half > 500 ? 500 : half));
    }
    if (draining) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              drain_deadline - pre)
              .count();
      const int cap = remaining < 0 ? 0 : static_cast<int>(remaining) + 1;
      if (timeout_ms < 0 || cap < timeout_ms) timeout_ms = cap;
    }
    const int n = ::epoll_wait(epoll_fd, events, 64, timeout_ms);
    if (n < 0 && errno != EINTR) break;
    const auto now = std::chrono::steady_clock::now();

    for (int i = 0; i < n; ++i) {
      const std::uint64_t key = events[i].data.u64;
      if (key == kStopMarker) {
        std::uint64_t counter = 0;
        while (::read(stop_fd, &counter, sizeof(counter)) > 0) {
        }
        if (!draining) begin_drain(now);
        continue;
      }
      if (key == kWakeMarker) continue;  // completions drained below
      if (key == kListenMarker) {
        accept_all(now);
        continue;
      }
      auto it = conns.find(key);
      if (it == conns.end()) continue;  // closed earlier this pass
      Connection& conn = it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        close_conn(key);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!flush_writes(conn)) continue;  // connection closed
        update_events(conn);
      }
      if ((events[i].events & EPOLLIN) != 0) handle_read(conn, now);
    }

    process_completions(now);
    sweep_idle(now);

    if (draining) {
      bool queues_empty = true;
      for (const auto& [gen, conn] : conns) {
        if (!conn.write_queue.empty()) {
          queues_empty = false;
          break;
        }
      }
      if ((pending.empty() && queues_empty) || now >= drain_deadline) break;
    }
  }

  // Teardown (loop thread): close every connection; responses still in
  // flight resolve against an empty conns map and are dropped.
  std::vector<std::uint64_t> gens;
  gens.reserve(conns.size());
  for (const auto& [gen, conn] : conns) gens.push_back(gen);
  for (const std::uint64_t gen : gens) close_conn(gen);
  pending.clear();
  running.store(false, std::memory_order_release);
}

void AlignServer::Impl::begin_drain(
    std::chrono::steady_clock::time_point now) {
  draining = true;
  drain_deadline = now + options.drain_timeout;
  if (listen_fd >= 0) {
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
    ::close(listen_fd);
    listen_fd = -1;
  }
  for (auto& [gen, conn] : conns) {
    conn.read_armed = false;
    update_events(conn);
  }
}

void AlignServer::Impl::accept_all(std::chrono::steady_clock::time_point now) {
  while (true) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: nothing more to accept
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    const std::uint64_t gen = ++next_gen;
    Connection conn;
    conn.fd = fd;
    conn.gen = gen;
    conn.decoder = FrameDecoder({options.max_payload_bytes});
    conn.last_activity = now;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = gen;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    conns.emplace(gen, std::move(conn));
    metrics.accepted.add();
    metrics.connections.set(static_cast<double>(conns.size()));
    open_connections.store(conns.size(), std::memory_order_release);
  }
}

void AlignServer::Impl::handle_read(Connection& conn,
                                    std::chrono::steady_clock::time_point now) {
  std::uint8_t buf[64 * 1024];
  bool peer_closed = false;
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      metrics.bytes_in.add(static_cast<std::uint64_t>(n));
      conn.decoder.feed(buf, static_cast<std::size_t>(n));
      conn.last_activity = now;
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
    peer_closed = true;  // hard error
    break;
  }

  // queue_frame() inside this loop can close the connection (peer reset,
  // or error-frame flush on a closing connection), invalidating `conn` —
  // re-look it up by generation after every step that might.
  const std::uint64_t gen = conn.gen;
  Frame frame;
  while (true) {
    auto it = conns.find(gen);
    if (it == conns.end()) return;  // closed while handling a frame
    Connection& c = it->second;
    if (c.closing) break;
    const FrameDecoder::Result result = c.decoder.next(frame);
    if (result == FrameDecoder::Result::kNeedMore) break;
    if (result == FrameDecoder::Result::kError) {
      // The byte stream desynced: name the field, flush, close. Marking
      // closing first makes flush_writes() close as soon as the error
      // frame is out the door.
      metrics.decode_errors.add();
      c.closing = true;
      c.read_armed = false;
      send_error(c, 0, c.decoder.error_field(), c.decoder.error_message());
      break;
    }
    metrics.frames_in.add();
    handle_frame(c, std::move(frame), now);
  }

  auto it = conns.find(gen);
  if (it == conns.end()) return;
  Connection& c = it->second;
  if (peer_closed && c.in_flight == 0 && c.write_queue.empty()) {
    close_conn(gen);
    return;
  }
  if (peer_closed) {
    // Half-closed with responses still owed: stop reading, let the write
    // side finish (the peer may be a shutdown(SHUT_WR) client).
    c.read_armed = false;
  }
  update_events(c);
}

void AlignServer::Impl::handle_frame(
    Connection& conn, Frame&& frame,
    std::chrono::steady_clock::time_point now) {
  switch (frame.type) {
    case FrameType::kPing:
      queue_frame(conn, encode_frame(FrameType::kPong, frame.request_id,
                                     frame.payload));
      return;
    case FrameType::kAlignRequest:
      break;
    default:
      metrics.decode_errors.add();
      send_error(conn, frame.request_id, "type",
                 std::string("unexpected frame type '") +
                     to_string(frame.type) + "' from a client");
      return;
  }

  WireAlignRequest wire;
  std::string field;
  if (!decode_align_request(frame.payload, &wire, &field)) {
    metrics.decode_errors.add();
    send_error(conn, frame.request_id, field,
               "malformed align request: field '" + field + "'");
    return;
  }

  Pending p;
  p.conn_gen = conn.gen;
  p.request_id = frame.request_id;
  p.want_sam = wire.want_sam;
  p.reference_id = wire.reference_id;
  if (wire.want_sam) p.reads = wire.reads;  // kept for SAM rendering

  serve::AlignRequest request;
  request.reads = std::move(wire.reads);
  request.reference_id = std::move(wire.reference_id);
  request.priority = static_cast<serve::RequestPriority>(wire.priority);
  request.received_at = now;  // S46 kRecv stamp: frame fully reassembled
  if (wire.deadline_budget) {
    request.deadline = serve::ServiceClock::now() + *wire.deadline_budget;
  }
  const std::uint64_t token = ++next_token;
  const std::shared_ptr<CompletionQueue> cq = completions;
  request.on_complete = [cq, token] { cq->notify(token); };

  metrics.requests.add();
  conn.in_flight += 1;
  // submit() may fulfill inline (fail-fast); on_complete then fires on this
  // thread before the pending entry exists — harmless, because the token is
  // only *processed* in process_completions(), after this insert.
  p.future = service->submit(std::move(request));
  pending.emplace(token, std::move(p));
}

void AlignServer::Impl::process_completions(
    std::chrono::steady_clock::time_point now) {
  for (const std::uint64_t token : completions->drain()) {
    auto it = pending.find(token);
    if (it == pending.end()) continue;
    Pending p = std::move(it->second);
    pending.erase(it);

    WireAlignResponse wire;
    try {
      // Ready by contract: on_complete fires only after the promise is
      // fulfilled, so this get() never blocks the loop.
      serve::AlignResponse response = p.future.get();
      wire.status = static_cast<std::uint8_t>(response.status);
      wire.reason = std::move(response.reason);
      wire.breakdown = response.breakdown;
      wire.latency_ms = response.latency_ms;
      wire.results = std::move(response.results);
      if (p.want_sam && response.status == serve::RequestStatus::kOk) {
        wire.sam = render_sam(p, wire.results);
      }
    } catch (const std::exception& e) {
      wire.status = kWireStatusError;
      wire.reason = e.what();
    } catch (...) {
      wire.status = kWireStatusError;
      wire.reason = "engine failure";
    }

    auto conn_it = conns.find(p.conn_gen);
    if (conn_it == conns.end()) continue;  // connection already gone
    Connection& conn = conn_it->second;
    if (conn.in_flight > 0) conn.in_flight -= 1;
    conn.last_activity = now;
    queue_frame(conn, encode_frame(FrameType::kAlignResponse, p.request_id,
                                   encode_align_response(wire)));
  }
}

std::string AlignServer::Impl::render_sam(
    const Pending& p, const std::vector<align::AlignmentResult>& results) {
  const auto src = options.sam_sources.find(p.reference_id);
  if (src == options.sam_sources.end() ||
      src->second.reference == nullptr) {
    return {};
  }
  const SamSource& source = src->second;
  std::ostringstream out;
  align::SamWriter writer =
      source.chromosomes.empty()
          ? align::SamWriter(out, source.reference_name, *source.reference)
          : align::SamWriter(out, *source.reference, source.chromosomes);
  const std::size_t n = p.reads.size() < results.size() ? p.reads.size()
                                                        : results.size();
  for (std::size_t i = 0; i < n; ++i) {
    // "read<i>" matches SamWriter::write_batch over a nameless batch, so
    // wire SAM is byte-identical to the in-process emission path.
    writer.write_alignment("read" + std::to_string(i), p.reads[i],
                           results[i]);
  }
  return out.str();
}

void AlignServer::Impl::queue_frame(Connection& conn,
                                    std::vector<std::uint8_t> bytes) {
  metrics.frames_out.add();
  conn.queued_bytes += bytes.size();
  conn.write_queue.push_back(std::move(bytes));
  metrics.write_queue_depth.observe(static_cast<double>(conn.queued_bytes));
  if (!flush_writes(conn)) return;  // connection closed mid-write
  update_events(conn);
}

void AlignServer::Impl::send_error(Connection& conn, std::uint64_t request_id,
                                   std::string field, std::string message) {
  WireError error{std::move(field), std::move(message)};
  queue_frame(conn,
              encode_frame(FrameType::kError, request_id, encode_error(error)));
}

bool AlignServer::Impl::flush_writes(Connection& conn) {
  while (!conn.write_queue.empty()) {
    const std::vector<std::uint8_t>& front = conn.write_queue.front();
    const ssize_t n = ::write(conn.fd, front.data() + conn.write_offset,
                              front.size() - conn.write_offset);
    if (n > 0) {
      metrics.bytes_out.add(static_cast<std::uint64_t>(n));
      conn.write_offset += static_cast<std::size_t>(n);
      conn.queued_bytes -= static_cast<std::size_t>(n);
      if (conn.write_offset == front.size()) {
        conn.write_queue.pop_front();
        conn.write_offset = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return true;  // kernel buffer full; EPOLLOUT will resume
    }
    close_conn(conn.gen);  // peer reset
    return false;
  }
  if (conn.closing) {
    close_conn(conn.gen);
    return false;
  }
  return true;
}

void AlignServer::Impl::update_events(Connection& conn) {
  // Backpressure: a client that stops draining responses loses its read
  // armed bit until the queue shrinks below half the bound — bounded
  // memory per connection, no matter how fast it submits.
  if (conn.read_armed && conn.queued_bytes > options.max_write_queue_bytes) {
    conn.read_armed = false;
  } else if (!conn.read_armed && !conn.closing && !draining &&
             !conn.decoder.failed() &&
             conn.queued_bytes <= options.max_write_queue_bytes / 2) {
    conn.read_armed = true;
  }
  epoll_event ev{};
  ev.events = (conn.read_armed ? EPOLLIN : 0u) |
              (conn.write_queue.empty() ? 0u : EPOLLOUT);
  ev.data.u64 = conn.gen;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void AlignServer::Impl::close_conn(std::uint64_t gen) {
  auto it = conns.find(gen);
  if (it == conns.end()) return;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  conns.erase(it);
  metrics.closed.add();
  metrics.connections.set(static_cast<double>(conns.size()));
  open_connections.store(conns.size(), std::memory_order_release);
}

void AlignServer::Impl::sweep_idle(std::chrono::steady_clock::time_point now) {
  if (options.idle_timeout.count() <= 0) return;
  std::vector<std::uint64_t> idle;
  for (const auto& [gen, conn] : conns) {
    if (conn.in_flight == 0 && conn.write_queue.empty() && !conn.closing &&
        now - conn.last_activity > options.idle_timeout) {
      idle.push_back(gen);
    }
  }
  for (const std::uint64_t gen : idle) close_conn(gen);
}

// ---------------------------------------------------------------------------

AlignServer::AlignServer(serve::AlignmentService& service, Options options)
    : impl_(std::make_unique<Impl>(service, std::move(options))) {}

AlignServer::~AlignServer() { stop(); }

void AlignServer::start() {
  std::lock_guard<std::mutex> lk(impl_->lifecycle_mu);
  if (impl_->started) return;
  impl_->start();
  impl_->started = true;
}

std::uint16_t AlignServer::port() const {
  return impl_->bound_port.load(std::memory_order_acquire);
}

void AlignServer::request_stop() noexcept {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(impl_->stop_fd, &one, sizeof(one));
}

void AlignServer::stop() {
  request_stop();
  std::lock_guard<std::mutex> lk(impl_->lifecycle_mu);
  if (!impl_->started || impl_->joined) return;
  impl_->loop_thread.join();
  impl_->joined = true;
}

bool AlignServer::running() const {
  return impl_->running.load(std::memory_order_acquire);
}

std::size_t AlignServer::connections() const {
  return impl_->open_connections.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------

namespace {

std::atomic<int> g_stop_event_fd{-1};

void forward_stop_signal(int) {
  const int fd = g_stop_event_fd.load(std::memory_order_relaxed);
  if (fd < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
}

}  // namespace

void install_stop_signal_handlers(AlignServer* server) {
  if (server == nullptr) {
    g_stop_event_fd.store(-1, std::memory_order_relaxed);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    return;
  }
  g_stop_event_fd.store(server->impl_->stop_fd, std::memory_order_relaxed);
  struct sigaction sa {};
  sa.sa_handler = forward_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

}  // namespace pim::net
