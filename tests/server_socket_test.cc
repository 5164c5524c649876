// Socket-layer robustness of the serving scaffolding (tools/net_util.h),
// under ctest rather than only the chaos-nightly shell job:
//
//   - a client that disconnects mid-response (RST while records are still
//     being written) must not kill the server — no SIGPIPE, and later
//     clients are served normally;
//   - a harmless signal delivered to the accept thread must not shut the
//     server down (the accept loop retries on EINTR; it exits only once
//     Stop() has cleared the listener);
//   - a slow client that stops reading its responses must not hang
//     shutdown: the SO_SNDTIMEO bound plus the two-phase drain force the
//     connection closed within the drain grace;
//   - Stop() from another thread unblocks Serve();
//   - accepted connections get TCP_NODELAY and the configured send timeout.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <span>
#include <string>
#include <thread>

#include "common/check.h"
#include "core/engine.h"
#include "serving/batch_scheduler.h"
#include "test_util.h"
#include "tools/net_util.h"

namespace kdash::tools {
namespace {

// A raw blocking TCP client speaking the line protocol.
class RawClient {
 public:
  explicit RawClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    KDASH_CHECK(fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    KDASH_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0);
  }

  ~RawClient() { Close(); }

  bool SendLine(const std::string& line) {
    const std::string payload = line + "\n";
    std::size_t sent = 0;
    while (sent < payload.size()) {
      const ssize_t wrote = ::send(fd_, payload.data() + sent,
                                   payload.size() - sent, MSG_NOSIGNAL);
      if (wrote < 0 && errno == EINTR) continue;
      if (wrote <= 0) return false;
      sent += static_cast<std::size_t>(wrote);
    }
    return true;
  }

  // Read one newline-terminated record (without the newline).
  bool RecvLine(std::string* line) {
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  // Hard disconnect: linger(0) turns close() into an RST, so the server's
  // next send fails immediately — the sharpest version of "the client
  // vanished mid-response".
  void Abort() {
    const linger hard{/*l_onoff=*/1, /*l_linger=*/0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    Close();
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

class ServerSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = test::RandomDirectedGraph(60, 300, 7);
    auto engine = Engine::Build(graph_);
    KDASH_CHECK(engine.ok()) << engine.status();
    engine_ = std::make_unique<Engine>(std::move(*engine));
    scheduler_ = std::make_unique<serving::BatchScheduler>(
        [&e = *engine_](std::span<const Query> queries) {
          return e.SearchBatch(queries);
        });
  }

  void TearDown() override {
    StopServer();
    scheduler_->Shutdown();
  }

  void StartServer(StreamConfig config = {}) {
    server_ = std::make_unique<LineServer>(*scheduler_, config);
    const Status listening = server_->Listen(0);
    KDASH_CHECK(listening.ok()) << listening;
    serve_thread_ = std::thread([this] { server_->Serve(); });
  }

  void StopServer() {
    if (!serve_thread_.joinable()) return;
    server_->Stop();
    serve_thread_.join();
  }

  graph::Graph graph_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<serving::BatchScheduler> scheduler_;
  std::unique_ptr<LineServer> server_;
  std::thread serve_thread_;
};

TEST_F(ServerSocketTest, SurvivesClientDisconnectMidResponse) {
  StartServer();

  // Queue many responses, read none, and RST the connection while the
  // server is still writing. Before MSG_NOSIGNAL/SIGPIPE hardening this
  // killed the whole process with SIGPIPE on the next send.
  {
    RawClient rude(server_->port());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(rude.SendLine("0 k=10"));
    }
    rude.Abort();
  }

  // The server (and this process) survived, and keeps serving: a polite
  // client gets a well-formed answer.
  RawClient polite(server_->port());
  ASSERT_TRUE(polite.SendLine("{\"ping\":1}"));
  std::string record;
  ASSERT_TRUE(polite.RecvLine(&record));
  EXPECT_NE(record.find("\"pong\":1"), std::string::npos) << record;
  ASSERT_TRUE(polite.SendLine("0 k=5"));
  ASSERT_TRUE(polite.RecvLine(&record));
  EXPECT_NE(record.find("\"top\":"), std::string::npos) << record;
}

TEST_F(ServerSocketTest, AcceptLoopSurvivesSignalInterruption) {
  StartServer();
  const pthread_t accept_thread = serve_thread_.native_handle();

  // A no-op handler (not SIG_IGN) so the signal interrupts accept() with
  // EINTR instead of being swallowed before delivery.
  struct sigaction action{};
  action.sa_handler = [](int) {};
  struct sigaction previous{};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(::pthread_kill(accept_thread, SIGUSR1), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // The old accept loop treated any accept() failure as shutdown — after
  // an EINTR the server would silently stop accepting. It must still be
  // serving new connections.
  RawClient client(server_->port());
  ASSERT_TRUE(client.SendLine("{\"ping\":1}"));
  std::string record;
  ASSERT_TRUE(client.RecvLine(&record));
  EXPECT_NE(record.find("\"pong\":1"), std::string::npos) << record;

  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);
}

TEST_F(ServerSocketTest, DrainForcesOutSlowClientWithinGrace) {
  // Tight timeouts so the full worst case — a writer stuck in send() to a
  // client that reads nothing — resolves in well under a second.
  StreamConfig config;
  config.send_timeout = std::chrono::milliseconds(200);
  config.drain_grace = std::chrono::milliseconds(200);
  StartServer(config);

  // The slow client fills the server's send path (many fat responses into
  // an unread socket) and then... just sits there.
  RawClient slow(server_->port());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(slow.SendLine("0 k=50"));
  }
  // Give the writer a moment to wedge against the full socket buffers.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Shutdown must not hang on it: phase 1 wakes readers, the grace period
  // expires, phase 2 full-closes the stuck connection.
  const auto start = std::chrono::steady_clock::now();
  StopServer();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST_F(ServerSocketTest, StopFromAnotherThreadUnblocksServe) {
  StartServer();
  EXPECT_TRUE(serve_thread_.joinable());
  const auto start = std::chrono::steady_clock::now();
  StopServer();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(2));
}

TEST(ConfigureAcceptedSocketTest, SetsNoDelayAndSendTimeout) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), addr_len),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  RawClient client(ntohs(addr.sin_port));
  const int accepted = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(accepted, 0);

  ConfigureAcceptedSocket(accepted, std::chrono::milliseconds(1500));

  int no_delay = 0;
  socklen_t size = sizeof(no_delay);
  ASSERT_EQ(
      ::getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &no_delay, &size), 0);
  EXPECT_EQ(no_delay, 1);
  timeval timeout{};
  size = sizeof(timeout);
  ASSERT_EQ(::getsockopt(accepted, SOL_SOCKET, SO_SNDTIMEO, &timeout, &size),
            0);
  // The kernel keeps the timeout in scheduler ticks, so read it back to
  // within one tick (at most 10 ms).
  const long long timeout_us =
      static_cast<long long>(timeout.tv_sec) * 1'000'000 + timeout.tv_usec;
  EXPECT_NEAR(timeout_us, 1'500'000, 10'000);

  ::close(accepted);
  ::close(listener);
}

}  // namespace
}  // namespace kdash::tools
