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
//   - a split Begin/Finish/Abandon call surface so the router can hedge:
//     Begin writes the request and exposes the connection's fd for
//     poll(), Finish reads the response line, Abandon closes a loser
//     connection whose late response would desynchronize the stream.
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

namespace kdash::serving {

struct RemoteEndpoint {
  std::string host = "127.0.0.1";  // numeric IPv4, or the literal "localhost"
  int port = 0;

  std::string ToString() const { return host + ":" + std::to_string(port); }
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

// Milliseconds until `deadline` for poll(), rounded up so a wait never
// ends before it, clamped to [0, 60 s] for poll()'s int argument (callers
// re-poll until the deadline has really passed). An already-passed
// deadline gives 0: one non-blocking readiness check.
int PollTimeoutMs(std::chrono::steady_clock::time_point deadline);

class RemoteWorker {
 public:
  RemoteWorker(RemoteEndpoint endpoint, RemoteOptions options);
  ~RemoteWorker();  // closes every pooled connection

  RemoteWorker(const RemoteWorker&) = delete;
  RemoteWorker& operator=(const RemoteWorker&) = delete;

  const RemoteEndpoint& endpoint() const { return endpoint_; }

  // An in-flight request: Begin succeeded, Finish/Abandon pending. Move-
  // only; destroying an active call closes its connection (equivalent to
  // Abandon — safe, never silently reusable).
  class Call {
   public:
    Call() = default;
    Call(Call&& other) noexcept { *this = std::move(other); }
    Call& operator=(Call&& other) noexcept {
      std::swap(fd_, other.fd_);
      std::swap(buffer_, other.buffer_);
      return *this;
    }
    ~Call();

    bool active() const { return fd_ >= 0; }
    // For poll(): readable means Finish will not block.
    int fd() const { return fd_; }

   private:
    friend class RemoteWorker;
    int fd_ = -1;
    std::string buffer_;  // bytes received ahead of the newline
  };

  // Write one request line (newline appended) on a pooled or fresh
  // connection. Transport failure counts against the endpoint's health.
  [[nodiscard]] Result<Call> Begin(const std::string& line);

  // Read the response line (no newline), waiting until `deadline` at the
  // latest. Success returns the connection to the pool and counts toward
  // mark-up; failure closes it and counts toward mark-down.
  [[nodiscard]] Result<std::string> Finish(
      Call call, std::chrono::steady_clock::time_point deadline);

  // Drop an in-flight call whose answer lost a hedge race. The connection
  // is closed, not pooled — its response may still arrive and would be
  // mistaken for the next request's. Does not touch health accounting.
  void Abandon(Call call);

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
  // Dial a fresh connection (non-blocking connect bounded by
  // connect_timeout). Returns the connected fd.
  [[nodiscard]] Result<int> Dial();

  // Pop a pooled connection or dial, honoring the backoff gate unless
  // `bypass_backoff`.
  [[nodiscard]] Result<Call> CheckOut(bool bypass_backoff);

  // wire::SendLine on the call's connection; kUnavailable naming this
  // endpoint when the connection fails mid-line.
  [[nodiscard]] Status Send(const Call& call, std::string_view line) const;

  // Counts an IO error against the endpoint's health and returns `status`.
  // The caller drops the call, whose destructor closes the connection.
  Status FailIo(Status status);

  void MarkTransportFailure();
  void MarkTransportSuccess();

  const RemoteEndpoint endpoint_;
  const RemoteOptions options_;

  mutable Mutex mutex_;
  // Idle connections ready for reuse, with any bytes read past a previous
  // response's newline (none in practice — one request, one line back).
  std::vector<std::pair<int, std::string>> idle_ KDASH_GUARDED_BY(mutex_);
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
