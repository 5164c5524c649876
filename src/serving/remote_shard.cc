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

// Registry handles resolved once — Begin/Finish sit on the query path.
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

}  // namespace

int PollTimeoutMs(std::chrono::steady_clock::time_point deadline) {
  const auto remaining = deadline - std::chrono::steady_clock::now();
  if (remaining.count() <= 0) return 0;
  const auto ms =
      std::chrono::ceil<std::chrono::milliseconds>(remaining).count();
  return static_cast<int>(std::min<long long>(ms, 60'000));
}

RemoteWorker::Call::~Call() {
  if (fd_ >= 0) ::close(fd_);
}

RemoteWorker::RemoteWorker(RemoteEndpoint endpoint, RemoteOptions options)
    : endpoint_(std::move(endpoint)),
      options_(options),
      dial_backoff_(options.reconnect_backoff) {}

RemoteWorker::~RemoteWorker() {
  MutexLock lock(mutex_);
  for (const auto& [fd, leftover] : idle_) ::close(fd);
  idle_.clear();
}

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

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(endpoint_.port));
  const std::string host =
      endpoint_.host == "localhost" ? "127.0.0.1" : endpoint_.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
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

Result<RemoteWorker::Call> RemoteWorker::CheckOut(bool bypass_backoff) {
  {
    MutexLock lock(mutex_);
    if (!idle_.empty()) {
      Call call;
      call.fd_ = idle_.back().first;
      call.buffer_ = std::move(idle_.back().second);
      idle_.pop_back();
      return call;
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
  Call call;
  call.fd_ = *fd;
  return call;
}

Result<RemoteWorker::Call> RemoteWorker::Begin(const std::string& line) {
  Result<Call> call = CheckOut(/*bypass_backoff=*/false);
  if (!call.ok()) {
    MarkTransportFailure();
    return call.status();
  }
  Metrics().requests->Add();
  const Status sent = [&]() -> Status {
    KDASH_INJECT_FAULT("remote.send");
    return Send(*call, line);
  }();
  if (!sent.ok()) return FailIo(sent);
  return std::move(*call);
}

Status RemoteWorker::Send(const Call& call, std::string_view line) const {
  if (wire::SendLine(call.fd_, line)) return Status::Ok();
  return Status::Unavailable("send to " + endpoint_.ToString() + " failed");
}

Status RemoteWorker::FailIo(Status status) {
  Metrics().io_errors->Add();
  MarkTransportFailure();
  return status;
}

Result<std::string> RemoteWorker::Finish(
    Call call, std::chrono::steady_clock::time_point deadline) {
  if (!call.active()) {
    return Status::Internal("Finish on an inactive remote call");
  }
  // Every failure below returns FailIo(...): `call` goes out of scope and
  // closes the connection.
  if (fault::AnyArmed()) {
    const Status injected = fault::Check("remote.recv");
    if (!injected.ok()) return FailIo(injected);
  }
  for (;;) {
    const std::size_t newline = call.buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = call.buffer_.substr(0, newline);
      std::string leftover = call.buffer_.substr(newline + 1);
      const int fd = call.fd_;
      call.fd_ = -1;  // ownership moves to the idle pool
      {
        MutexLock lock(mutex_);
        idle_.emplace_back(fd, std::move(leftover));
      }
      MarkTransportSuccess();
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    pollfd pfd{call.fd_, POLLIN, 0};
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
    const ssize_t got = ::recv(call.fd_, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      return FailIo(
          Status::Unavailable(endpoint_.ToString() + " closed the connection"));
    }
    call.buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

void RemoteWorker::Abandon(Call call) {
  // The moved-in call's destructor closes the connection; an abandoned
  // request's late response must never be read as some other request's.
  (void)call;
}

Status RemoteWorker::Probe() {
  Result<Call> call = CheckOut(/*bypass_backoff=*/true);
  if (!call.ok()) {
    MarkTransportFailure();
    return call.status();
  }
  // Not Begin: the probe already holds a connection (checked out past the
  // backoff gate, which Begin would re-apply), and the remote.send fault
  // site stays on the query path.
  Metrics().requests->Add();
  const Status sent = Send(*call, wire::PingLine());
  if (!sent.ok()) return FailIo(sent);
  KDASH_ASSIGN_OR_RETURN(
      std::string line,
      Finish(std::move(*call),
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
