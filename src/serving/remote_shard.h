// kdash::serving::RemoteWorker — one failable worker endpoint.
//
// The distributed tier's unit of failure is a worker process (a
// kdash_server serving one or more shards of a sharded index) speaking the
// JSON-lines TCP protocol. This class owns everything about talking to
// one such endpoint and assuming it can die at any moment:
//
//   - a small pool of reused TCP connections (dial on demand, return on
//     success, close on any error — a connection that saw a transport
//     error may hold a half-written request and can never be trusted for
//     another round-trip);
//   - bounded reconnect backoff: a dead endpoint costs one fast
//     kUnavailable per call while the backoff holds, not one
//     connect_timeout per query;
//   - a health state machine: down_after_failures consecutive transport
//     failures mark the endpoint down (the router then prefers healthy
//     replicas), one successful round-trip — usually the background
//     prober's ping — marks it back up;
//   - one call, RoundTrip: write a request line, read one response line
//     back before a deadline.
//
// Every transport step is a registered fault site (remote.connect /
// remote.send / remote.recv), so chaos tests can kill exactly one hop.
#ifndef KDASH_SERVING_REMOTE_SHARD_H_
#define KDASH_SERVING_REMOTE_SHARD_H_

#include <chrono>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"

struct sockaddr_in;

namespace kdash::serving {

struct RemoteEndpoint {
  std::string host = "127.0.0.1";  // numeric IPv4, or the literal "localhost"
  int port = 0;

  std::string ToString() const { return host + ":" + std::to_string(port); }

  // Fills `addr` for connect(); false when host is neither numeric IPv4
  // nor "localhost" (there is no DNS lookup).
  bool Resolve(sockaddr_in* addr) const;
};

struct RemoteOptions {
  // Bound for one TCP connect attempt (non-blocking connect + poll).
  std::chrono::milliseconds connect_timeout{500};

  // Wait for one response line when the query carries no deadline.
  std::chrono::milliseconds io_timeout{5000};

  // After a failed dial the endpoint is not re-dialed for the current
  // backoff, which doubles per consecutive failure up to 2 s. The health
  // prober bypasses the gate — something must eventually re-dial a
  // recovered worker.
  std::chrono::milliseconds reconnect_backoff{50};

  // Consecutive transport failures before healthy() flips false.
  int down_after_failures = 3;
};

class RemoteWorker {
 public:
  RemoteWorker(RemoteEndpoint endpoint, RemoteOptions options);
  ~RemoteWorker() = default;  // closes every pooled connection

  RemoteWorker(const RemoteWorker&) = delete;
  RemoteWorker& operator=(const RemoteWorker&) = delete;

  const RemoteEndpoint& endpoint() const { return endpoint_; }

  // Write one request line (newline appended) on a pooled or fresh
  // connection and read the response line (no newline), waiting until
  // `deadline` at the latest. Success returns the connection to the pool
  // and counts toward mark-up; a transport failure closes it and counts
  // toward mark-down.
  [[nodiscard]] Result<std::string> RoundTrip(
      const std::string& line, std::chrono::steady_clock::time_point deadline);

  // One {"ping":1} round-trip, bypassing the reconnect-backoff gate. A
  // pong marks the endpoint up and harvests its advertised shard count for
  // the router's failure accounting.
  [[nodiscard]] Status Probe();

  bool healthy() const;

  // Shards this endpoint advertises serving (its last pong's "shards"
  // field); 1 until a pong says otherwise — the router weighs the
  // endpoint's success or failure by this many shards.
  int shard_weight() const;

 private:
  // A checked-out connection: its fd and any bytes received ahead of the
  // newline. Move-only; destroying one that still holds its fd closes it,
  // so a connection that failed mid-exchange is never reused.
  struct Connection {
    Connection() = default;
    explicit Connection(int fd_in) : fd(fd_in) {}
    Connection(Connection&& other) noexcept { *this = std::move(other); }
    Connection& operator=(Connection&& other) noexcept {
      std::swap(fd, other.fd);
      std::swap(buffer, other.buffer);
      return *this;
    }
    ~Connection();

    int fd = -1;
    std::string buffer;
  };

  // Dial a fresh connection (non-blocking connect bounded by
  // connect_timeout). Returns the connected fd.
  [[nodiscard]] Result<int> Dial();

  // Pop a pooled connection or dial, honoring the backoff gate unless
  // `bypass_backoff`.
  [[nodiscard]] Result<Connection> CheckOut(bool bypass_backoff);

  // wire::SendLine on the connection; kUnavailable naming this endpoint
  // when the connection fails mid-line.
  [[nodiscard]] Status Send(const Connection& connection,
                            std::string_view line) const;

  // RoundTrip's read half, shared with Probe: the response line, the
  // connection pooled on success and closed on failure, with the same
  // health accounting.
  [[nodiscard]] Result<std::string> Receive(
      Connection connection, std::chrono::steady_clock::time_point deadline);

  // Counts an IO error against the endpoint's health and returns `status`.
  // The caller drops the connection, whose destructor closes it.
  Status FailIo(Status status);

  void MarkTransportFailure();
  void MarkTransportSuccess();

  const RemoteEndpoint endpoint_;
  const RemoteOptions options_;

  mutable Mutex mutex_;
  // Idle connections ready for reuse, with any bytes read past a previous
  // response's newline (none in practice — one request, one line back).
  std::vector<Connection> idle_ KDASH_GUARDED_BY(mutex_);
  int consecutive_failures_ KDASH_GUARDED_BY(mutex_) = 0;
  bool healthy_ KDASH_GUARDED_BY(mutex_) = true;
  int shard_weight_ KDASH_GUARDED_BY(mutex_) = 1;
  // Reconnect gate: no dialing before this instant.
  std::chrono::steady_clock::time_point next_dial_
      KDASH_GUARDED_BY(mutex_) = std::chrono::steady_clock::time_point::min();
  std::chrono::milliseconds dial_backoff_ KDASH_GUARDED_BY(mutex_);
};

}  // namespace kdash::serving

#endif  // KDASH_SERVING_REMOTE_SHARD_H_
