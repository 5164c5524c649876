#include "serving/remote_shard.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "obs/metrics.h"
#include "serving/wire.h"

namespace kdash::serving {
namespace {

// Cap on the doubling reconnect backoff.
constexpr std::chrono::milliseconds kMaxReconnectBackoff{2000};

// Registry handles resolved once — RoundTrip sits on the query path.
struct RemoteMetrics {
  obs::Counter* connects;
  obs::Counter* connect_errors;
  obs::Counter* io_errors;
  obs::Counter* requests;
  obs::Counter* marked_down;
  obs::Counter* marked_up;
};

const RemoteMetrics& Metrics() {
  static const RemoteMetrics metrics = {
      &obs::MetricRegistry::Global().GetCounter("serving.remote.connects"),
      &obs::MetricRegistry::Global().GetCounter(
          "serving.remote.connect_errors"),
      &obs::MetricRegistry::Global().GetCounter("serving.remote.io_errors"),
      &obs::MetricRegistry::Global().GetCounter("serving.remote.requests"),
      &obs::MetricRegistry::Global().GetCounter("router.marked_down"),
      &obs::MetricRegistry::Global().GetCounter("router.marked_up")};
  return metrics;
}

// Milliseconds until `deadline` for poll(), rounded up so a wait never
// ends before it, clamped to [0, 60 s] for poll()'s int argument (callers
// re-poll until the deadline has really passed). An already-passed
// deadline gives 0: one non-blocking readiness check.
int PollTimeoutMs(std::chrono::steady_clock::time_point deadline) {
  const auto remaining = deadline - std::chrono::steady_clock::now();
  if (remaining.count() <= 0) return 0;
  const auto ms =
      std::chrono::ceil<std::chrono::milliseconds>(remaining).count();
  return static_cast<int>(std::min<long long>(ms, 60'000));
}

}  // namespace

bool RemoteEndpoint::Resolve(sockaddr_in* addr) const {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<std::uint16_t>(port));
  return ::inet_pton(AF_INET, host == "localhost" ? "127.0.0.1" : host.c_str(),
                     &addr->sin_addr) == 1;
}

RemoteWorker::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

RemoteWorker::RemoteWorker(RemoteEndpoint endpoint, RemoteOptions options)
    : endpoint_(std::move(endpoint)),
      options_(options),
      dial_backoff_(options.reconnect_backoff) {}

bool RemoteWorker::healthy() const {
  MutexLock lock(mutex_);
  return healthy_;
}

int RemoteWorker::shard_weight() const {
  MutexLock lock(mutex_);
  return shard_weight_;
}

void RemoteWorker::MarkTransportFailure() {
  bool transitioned = false;
  {
    MutexLock lock(mutex_);
    ++consecutive_failures_;
    if (healthy_ && consecutive_failures_ >= options_.down_after_failures) {
      healthy_ = false;
      transitioned = true;
    }
  }
  if (transitioned) Metrics().marked_down->Add();
}

void RemoteWorker::MarkTransportSuccess() {
  bool transitioned = false;
  {
    MutexLock lock(mutex_);
    consecutive_failures_ = 0;
    if (!healthy_) {
      healthy_ = true;
      transitioned = true;
    }
  }
  if (transitioned) Metrics().marked_up->Add();
}

Result<int> RemoteWorker::Dial() {
  if (fault::AnyArmed()) {
    const Status injected = fault::Check("remote.connect");
    if (!injected.ok()) {
      Metrics().connect_errors->Add();
      return injected;
    }
  }

  sockaddr_in addr;
  if (!endpoint_.Resolve(&addr)) {
    return Status::InvalidArgument("unresolvable worker host \"" +
                                   endpoint_.host +
                                   "\" (numeric IPv4 or localhost)");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");

  // Non-blocking connect bounded by connect_timeout — a blocking connect
  // to a dead-but-routable host can hang for minutes of kernel retries.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const auto fail_dial = [&](const std::string& detail) -> Status {
    ::close(fd);
    Metrics().connect_errors->Add();
    return Status::Unavailable("connect to " + endpoint_.ToString() + " " +
                               detail);
  };
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) return fail_dial("refused");
    pollfd pfd{fd, POLLOUT, 0};
    int ready;
    do {
      ready = ::poll(&pfd, 1,
                     static_cast<int>(options_.connect_timeout.count()));
    } while (ready < 0 && errno == EINTR);
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (ready <= 0) return fail_dial("timed out");
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0 ||
        err != 0) {
      return fail_dial(std::string("failed: ") + std::strerror(err));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  // Request lines are tiny and latency-critical; Nagle would batch them.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Metrics().connects->Add();
  return fd;
}

Result<RemoteWorker::Connection> RemoteWorker::CheckOut(bool bypass_backoff) {
  {
    MutexLock lock(mutex_);
    if (!idle_.empty()) {
      Connection connection = std::move(idle_.back());
      idle_.pop_back();
      return connection;
    }
    if (!bypass_backoff && std::chrono::steady_clock::now() < next_dial_) {
      return Status::Unavailable(endpoint_.ToString() +
                                 " in reconnect backoff");
    }
  }
  Result<int> fd = Dial();
  MutexLock lock(mutex_);
  if (!fd.ok()) {
    next_dial_ = std::chrono::steady_clock::now() + dial_backoff_;
    dial_backoff_ = std::min(dial_backoff_ * 2, kMaxReconnectBackoff);
    return fd.status();
  }
  dial_backoff_ = options_.reconnect_backoff;
  next_dial_ = std::chrono::steady_clock::time_point::min();
  return Connection(*fd);
}

Result<std::string> RemoteWorker::RoundTrip(
    const std::string& line, std::chrono::steady_clock::time_point deadline) {
  Result<Connection> connection = CheckOut(/*bypass_backoff=*/false);
  if (!connection.ok()) {
    MarkTransportFailure();
    return connection.status();
  }
  Metrics().requests->Add();
  const Status sent = [&]() -> Status {
    KDASH_INJECT_FAULT("remote.send");
    return Send(*connection, line);
  }();
  if (!sent.ok()) return FailIo(sent);
  return Receive(std::move(*connection), deadline);
}

Status RemoteWorker::Send(const Connection& connection,
                          std::string_view line) const {
  if (wire::SendLine(connection.fd, line)) return Status::Ok();
  return Status::Unavailable("send to " + endpoint_.ToString() + " failed");
}

Status RemoteWorker::FailIo(Status status) {
  Metrics().io_errors->Add();
  MarkTransportFailure();
  return status;
}

Result<std::string> RemoteWorker::Receive(
    Connection connection, std::chrono::steady_clock::time_point deadline) {
  // Every failure below returns FailIo(...): `connection` goes out of scope
  // and closes its fd.
  if (fault::AnyArmed()) {
    const Status injected = fault::Check("remote.recv");
    if (!injected.ok()) return FailIo(injected);
  }
  for (;;) {
    const std::size_t newline = connection.buffer.find('\n');
    if (newline != std::string::npos) {
      std::string line = connection.buffer.substr(0, newline);
      connection.buffer.erase(0, newline + 1);
      {
        MutexLock lock(mutex_);
        idle_.push_back(std::move(connection));
      }
      MarkTransportSuccess();
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    pollfd pfd{connection.fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, PollTimeoutMs(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) {
      return FailIo(Status::Unavailable("poll on " + endpoint_.ToString() +
                                        " failed"));
    }
    if (ready == 0) {
      if (std::chrono::steady_clock::now() >= deadline) {
        return FailIo(Status::DeadlineExceeded(
            "no response from " + endpoint_.ToString() +
            " before the deadline"));
      }
      continue;  // clamped poll window expired; the deadline has not
    }
    char chunk[4096];
    const ssize_t got = ::recv(connection.fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      return FailIo(
          Status::Unavailable(endpoint_.ToString() + " closed the connection"));
    }
    connection.buffer.append(chunk, static_cast<std::size_t>(got));
  }
}

Status RemoteWorker::Probe() {
  Result<Connection> connection = CheckOut(/*bypass_backoff=*/true);
  if (!connection.ok()) {
    MarkTransportFailure();
    return connection.status();
  }
  // Not RoundTrip: the probe already holds a connection (checked out past
  // the backoff gate, which RoundTrip would re-apply), and the remote.send
  // fault site stays on the query path.
  Metrics().requests->Add();
  const Status sent = Send(*connection, wire::PingLine());
  if (!sent.ok()) return FailIo(sent);
  KDASH_ASSIGN_OR_RETURN(
      std::string line,
      Receive(std::move(*connection),
              std::chrono::steady_clock::now() + options_.io_timeout));
  KDASH_ASSIGN_OR_RETURN(wire::ParsedRecord record,
                         wire::ParseRecordLine(line));
  if (record.kind != wire::ParsedRecord::Kind::kPong) {
    return Status::Internal(endpoint_.ToString() +
                            " answered a ping with a non-pong record");
  }
  MutexLock lock(mutex_);
  if (record.pong_shards > 0) shard_weight_ = record.pong_shards;
  return Status::Ok();
}

}  // namespace kdash::serving
