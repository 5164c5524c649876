// TCP serving scaffolding for kdash_server and its tests.
//
// Kept out of kdash_server.cc so ctest can drive the accept loop, the
// drain logic and the slow-client handling, and so tests (and the
// benchmarks) can run real workers of the distributed tier — each a
// LineServer over a BatchScheduler, exactly what `kdash_server <dir>
// --shards=...` runs — over loopback TCP in-process:
//
//   - LineServer: bind/listen/accept (EINTR-safe; port 0 picks an
//     ephemeral port and exposes it), one thread per connection, a
//     connection registry, and the two-phase drain (SHUT_RD to wake
//     readers, grace period, SHUT_RDWR for writers stuck on a client that
//     stopped reading). Stop() is callable from another thread or a
//     signal handler.
//   - PumpStream: the per-connection request pump — reader submits lines
//     to the BatchScheduler with a bounded in-flight window, writer
//     resolves responses in input order.
//   - SocketStreamBuf / IgnoreSigpipe / ConfigureAcceptedSocket: socket
//     primitives (records go out through serving::wire::SendLine).
//
// A dead client must never kill the process: every send uses MSG_NOSIGNAL
// and servers call IgnoreSigpipe() at startup anyway (belt and braces —
// any stray write(2) to a closed socket, now or in future code, must
// surface as EPIPE, not SIGPIPE).
#ifndef KDASH_TOOLS_NET_UTIL_H_
#define KDASH_TOOLS_NET_UTIL_H_

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <deque>
#include <functional>
#include <future>
#include <iostream>
#include <list>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "serving/batch_scheduler.h"
#include "serving/wire.h"

namespace kdash::tools {

// Route SIGPIPE to SIG_IGN, once, at server startup. MSG_NOSIGNAL already
// covers every send in this file, but a server that lives or dies by one
// flag on one call site is fragile; with SIGPIPE ignored a missed spot
// degrades to an EPIPE error return instead of killing the process.
inline void IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }

// Max requests in flight per stream: enough for batches to form, without
// unbounded memory behind a client that never reads.
inline constexpr std::size_t kStreamWindow = 256;

// Per-stream serving knobs of one LineServer or stdin pump.
struct StreamConfig {
  std::size_t default_k = 5;
  std::chrono::milliseconds deadline{0};  // 0 = none

  // Pong footprint advertisement: shards served (kdash_server sets it
  // whenever it serves a sharded directory), so a router can weigh this
  // process's failures in shard units, and the node count (informational).
  // Negative omits the field (unsharded pongs stay byte-stable).
  int pong_shards = -1;
  long long pong_nodes = -1;

  // Bound on one zero-progress send to a client (SO_SNDTIMEO) and on the
  // drain's grace period before stuck writers are force-closed. Production
  // keeps the defaults; tests shrink both to exercise the paths in
  // milliseconds.
  std::chrono::milliseconds send_timeout{10'000};
  std::chrono::milliseconds drain_grace{5'000};
};

// A line sink the pump can write records to (stdout or a socket).
using WriteLine = std::function<bool(const std::string&)>;

// One in-flight request of a stream: a health ping, a stats request, an
// immediately-failed parse (error set), or a query waiting on its
// scheduler future. The timer starts when the line is read and stops when
// the record is formatted — "t_us" is server-side end-to-end latency.
struct Pending {
  long long id = 0;
  bool is_ping = false;
  bool is_stats = false;
  bool hex_scores = false;  // request carried hex=1
  Query query;
  std::string parse_error;
  std::optional<std::future<Result<SearchResult>>> future;
  WallTimer timer;
};

// Registry handles for the server's own request metrics, resolved once
// (the writer thread touches them per record; lookups lock).
struct ServerMetrics {
  obs::Counter* requests;
  obs::Histogram* request_us;
};

inline ServerMetrics GetServerMetrics() {
  static const ServerMetrics metrics = {
      &obs::MetricRegistry::Global().GetCounter("server.requests"),
      &obs::MetricRegistry::Global().GetHistogram("server.request_us")};
  return metrics;
}

inline bool Resolve(Pending& pending, const WriteLine& write,
                    const StreamConfig& config) {
  const ServerMetrics metrics = GetServerMetrics();
  metrics.requests->Add();
  if (pending.is_ping) {
    return write(serving::wire::FormatPongRecord(
        pending.id, static_cast<long long>(pending.timer.Micros()),
        config.pong_shards, config.pong_nodes));
  }
  if (pending.is_stats) {
    // Snapshot taken here, at answer time, so the record reflects every
    // request resolved before it in stream order.
    return write(serving::wire::FormatStatsRecord(
        pending.id, obs::MetricRegistry::Global().SnapshotToJson(),
        static_cast<long long>(pending.timer.Micros())));
  }
  if (!pending.future.has_value()) {
    const long long t_us = static_cast<long long>(pending.timer.Micros());
    metrics.request_us->Record(static_cast<std::uint64_t>(t_us));
    return write(serving::wire::FormatErrorRecord(
        pending.id, Status::InvalidArgument(pending.parse_error), t_us));
  }
  Result<SearchResult> result = pending.future->get();
  const long long t_us = static_cast<long long>(pending.timer.Micros());
  metrics.request_us->Record(static_cast<std::uint64_t>(t_us));
  if (!result.ok()) {
    return write(
        serving::wire::FormatErrorRecord(pending.id, result.status(), t_us));
  }
  return write(serving::wire::FormatResultRecord(
      pending.id, pending.query, *result, t_us, pending.hex_scores));
}

// Pumps one request stream through the scheduler: a reader submits each
// line as it arrives (at most kStreamWindow in flight, so batches can form
// without unbounded memory) while a writer thread resolves responses in
// input order as soon as they complete — a request-response client gets
// its answer once its batch runs, never "once the window fills or EOF".
inline void PumpStream(std::istream& in, const WriteLine& write,
                       serving::BatchScheduler& scheduler,
                       const StreamConfig& config) {
  const auto timeout =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          config.deadline);

  // Shared reader/writer state lives in a struct so every guarded member
  // is annotated — locals cannot carry KDASH_GUARDED_BY.
  struct StreamState {
    Mutex mutex;
    CondVar changed;
    std::deque<Pending> in_flight KDASH_GUARDED_BY(mutex);
    bool input_done KDASH_GUARDED_BY(mutex) = false;
    bool sink_ok KDASH_GUARDED_BY(mutex) = true;
  };
  StreamState state;

  std::thread writer([&] {
    MutexLock lock(state.mutex);
    for (;;) {
      while (state.in_flight.empty() && !state.input_done) {
        state.changed.Wait(state.mutex);
      }
      if (state.in_flight.empty()) return;  // input done, everything resolved
      Pending pending = std::move(state.in_flight.front());
      state.in_flight.pop_front();
      lock.Unlock();
      const bool ok = Resolve(pending, write, config);  // blocks on the future
      lock.Lock();
      state.sink_ok = state.sink_ok && ok;
      state.changed.NotifyAll();  // reader may wait on window space
    }
  });

  long long id = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF input
    if (line.empty() || line[0] == '#') continue;
    Pending pending;
    pending.id = id++;
    if (serving::wire::IsPingLine(line)) {
      pending.is_ping = true;  // answered in order, never queued or shed
    } else if (serving::wire::IsStatsLine(line)) {
      pending.is_stats = true;  // like pings: in order, never queued or shed
    } else if (serving::wire::ParseQueryLine(
                   line, config.default_k, &pending.query,
                   &pending.parse_error, &pending.hex_scores)) {
      pending.future = scheduler.Submit(pending.query, timeout);
    }
    {
      MutexLock lock(state.mutex);
      while (state.in_flight.size() >= kStreamWindow && state.sink_ok) {
        state.changed.Wait(state.mutex);
      }
      if (!state.sink_ok) break;  // client went away; stop reading
      state.in_flight.push_back(std::move(pending));
    }
    state.changed.NotifyAll();
  }
  {
    MutexLock lock(state.mutex);
    state.input_done = true;
  }
  state.changed.NotifyAll();
  writer.join();
}

// Minimal istream over a socket so PumpStream works unchanged.
class SocketStreamBuf : public std::streambuf {
 public:
  explicit SocketStreamBuf(int fd) : fd_(fd) {}

 protected:
  int underflow() override {
    for (;;) {
      const ssize_t got = ::recv(fd_, buffer_, sizeof(buffer_), 0);
      if (got < 0 && errno == EINTR) continue;  // signal, not disconnect
      if (got <= 0) return traits_type::eof();
      setg(buffer_, buffer_, buffer_ + got);
      return traits_type::to_int_type(buffer_[0]);
    }
  }

 private:
  int fd_;
  char buffer_[4096];
};

// Socket options for one accepted client connection.
//   - TCP_NODELAY: a record goes out as soon as it is written. With Nagle
//     on, a short record sent while an earlier one is unacknowledged waits
//     for the client's delayed ACK (tens of ms on loopback).
//   - SO_SNDTIMEO = send_timeout: bounds every send. A client that stops
//     reading its responses would otherwise park the worker in a blocking
//     send() forever — surviving the drain's SHUT_RD (which only wakes
//     readers) and pinning its pipeline window in steady state. After the
//     timeout the send fails, the stream winds down, and the worker exits.
inline void ConfigureAcceptedSocket(int fd,
                                    std::chrono::milliseconds send_timeout) {
  const int no_delay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &no_delay, sizeof(no_delay));
  const auto timeout_us =
      std::chrono::duration_cast<std::chrono::microseconds>(send_timeout);
  const timeval timeout{
      static_cast<time_t>(timeout_us.count() / 1'000'000),
      static_cast<suseconds_t>(timeout_us.count() % 1'000'000)};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
}

// A loopback JSON-lines TCP server over one BatchScheduler: Listen() binds
// (port 0 = ephemeral, port() tells which), Serve() accepts until Stop()
// and then drains, one thread per connection running PumpStream.
//
// Connection threads are joinable while running and tracked in a shared
// registry. A worker that finishes in steady state detaches and erases
// itself under the registry lock (so a burst of short connections leaves
// no exited-but-unjoined stacks behind); once the drain flips `draining`,
// workers instead mark themselves done and wait to be joined — shutdown
// must be able to wait for every worker while the scheduler and config
// this object references are still alive. The open-fd registry lets the
// drain half-close idle connections whose readers are parked in recv().
class LineServer {
 public:
  LineServer(serving::BatchScheduler& scheduler, StreamConfig config)
      : scheduler_(scheduler), config_(config) {}

  ~LineServer() {
    const int fd = listen_fd_.exchange(-1);
    if (fd >= 0) ::close(fd);
  }

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  // Bind and listen on 127.0.0.1:port; port 0 picks an ephemeral port.
  [[nodiscard]] Status Listen(int port) {
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) return Status::Internal("socket() failed");
    const int reuse = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
            0 ||
        ::listen(listen_fd, 64) < 0) {
      ::close(listen_fd);
      return Status::Unavailable("cannot listen on 127.0.0.1:" +
                                 std::to_string(port));
    }
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                      &addr_len) == 0) {
      port_ = static_cast<int>(ntohs(addr.sin_port));
    } else {
      port_ = port;
    }
    listen_fd_.store(listen_fd);
    return Status::Ok();
  }

  int port() const { return port_; }

  // Close the listener, which unwinds Serve()'s accept loop. Callable from
  // another thread or from a signal handler (atomic exchange + shutdown +
  // close only); idempotent.
  void Stop() {
    const int fd = listen_fd_.exchange(-1);
    if (fd < 0) return;
    // shutdown() wakes a thread blocked in accept() on this socket —
    // close() alone is not guaranteed to (the fd could also be recycled
    // under the accepting thread). The subsequent accept failure then
    // observes listen_fd_ == -1 and exits the loop.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }

  // Accept loop + two-phase drain; returns once every connection thread
  // has been joined. Call Listen() first.
  void Serve() {
    const int listen_fd = listen_fd_.load();
    if (listen_fd < 0) return;

    struct Connection {
      // Unguarded on purpose: the thread handle is touched only by its own
      // worker (self-detach in steady state) or by the drain after `done`
      // (release/acquire) hands ownership over — never concurrently.
      std::thread thread;
      std::atomic<bool> done{false};
    };
    struct ConnectionRegistry {
      Mutex mutex;
      std::vector<int> open_fds KDASH_GUARDED_BY(mutex);
      std::list<Connection> connections KDASH_GUARDED_BY(mutex);
      bool draining KDASH_GUARDED_BY(mutex) = false;
    };
    ConnectionRegistry registry;

    for (;;) {
      const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
      if (conn_fd < 0) {
        // Exit only when Stop() cleared the listener. Anything else —
        // EINTR from a harmless signal, ECONNABORTED from a client that
        // hung up mid-handshake, transient ENFILE/EMFILE pressure — must
        // not shut the server down: breaking on the first failed accept
        // turned any stray signal into a full (silent) server exit.
        if (listen_fd_.load() < 0) break;
        if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) {
          continue;
        }
        if (errno == EMFILE || errno == ENFILE) {
          // Out of descriptors: back off briefly instead of spinning.
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          continue;
        }
        break;  // unrecoverable listener error
      }
      ConfigureAcceptedSocket(conn_fd, config_.send_timeout);
      MutexLock lock(registry.mutex);
      registry.open_fds.push_back(conn_fd);
      registry.connections.emplace_back();
      // list iterator: stable
      const auto self = std::prev(registry.connections.end());
      self->thread = std::thread([conn_fd, self, this, &registry] {
        SocketStreamBuf buf(conn_fd);
        std::istream in(&buf);
        PumpStream(in, [conn_fd](const std::string& record) {
          // Chaos hook: a firing "server.send" behaves exactly like a dead
          // client socket — the stream winds down, the worker exits cleanly.
          if (fault::AnyArmed() && !fault::Check("server.send").ok()) {
            return false;
          }
          return serving::wire::SendLine(conn_fd, record);
        }, scheduler_, config_);
        // Deregister and close under the registry lock so the drain sweep
        // can never shutdown() a recycled descriptor.
        MutexLock lock(registry.mutex);
        registry.open_fds.erase(std::remove(registry.open_fds.begin(),
                                            registry.open_fds.end(), conn_fd),
                                registry.open_fds.end());
        ::close(conn_fd);
        if (registry.draining) {
          // The drain owns this node now and will join the thread.
          self->done.store(true, std::memory_order_release);
        } else {
          // Steady state: reclaim this stack immediately. The detach is
          // safe precisely because this lambda's last act is the erase
          // below — nothing of the server is touched after the lock drops.
          // kdash-lint: allow(detach) steady-state workers self-reap; the
          // drain path joins every worker alive once `draining` flips.
          self->thread.detach();
          registry.connections.erase(self);
        }
      });
    }

    // Drain in two phases. Phase 1: half-close every live connection
    // (SHUT_RD only — responses still in flight may finish writing), which
    // wakes readers blocked in recv() with EOF; PumpStream then resolves
    // its in-flight requests and returns. Phase 2: any worker still alive
    // after the grace period is stuck writing to a client that is not
    // reading (SO_SNDTIMEO only bounds a single zero-progress send, so a
    // client draining a byte every few seconds would stall forever) —
    // full-close its socket, which fails the pending send and unwinds the
    // stream. Only then are the joins below guaranteed to terminate.
    std::vector<Connection*> to_join;
    {
      MutexLock lock(registry.mutex);
      // From here on workers stop self-erasing, so every remaining node is
      // ours to join. Snapshot the stable list nodes (std::list pointers
      // never move) so the polling below runs without the registry lock.
      registry.draining = true;
      for (const int fd : registry.open_fds) ::shutdown(fd, SHUT_RD);
      to_join.reserve(registry.connections.size());
      for (Connection& conn : registry.connections) to_join.push_back(&conn);
    }
    const auto drain_deadline =
        std::chrono::steady_clock::now() + config_.drain_grace;
    for (Connection* conn : to_join) {
      while (!conn->done.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < drain_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    {
      MutexLock lock(registry.mutex);
      for (const int fd : registry.open_fds) ::shutdown(fd, SHUT_RDWR);
    }
    for (Connection* conn : to_join) conn->thread.join();
  }

 private:
  serving::BatchScheduler& scheduler_;
  const StreamConfig config_;
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
};

}  // namespace kdash::tools

#endif  // KDASH_TOOLS_NET_UTIL_H_
