// Socket front-end tests: byte-identity of responses across stdin / one
// socket / many concurrent connections, a client that reads nothing or a
// `wait` stalling only its own connection, the stats op's members,
// oversized-line / half-close / shutdown handling on live sockets, one
// line-length rule on both fronts wherever TCP splits a line, stop()
// ending blocked connections, a refused connection whose thread cannot
// start, and the constructor's failure paths releasing every descriptor.
// The concurrent cases are the TSan targets for the net front end.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/net_server.h"
#include "service/scenario_registry.h"
#include "service/server.h"
#include "service/service.h"
#include "util/error.h"
#include "util/json.h"

namespace mobitherm::service {
namespace {

namespace json = util::json;

ServiceConfig small_config(unsigned workers = 1,
                           std::size_t queue_capacity = 64) {
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue_capacity;
  cfg.cache_capacity = 64;
  return cfg;
}

std::string submit_line(std::uint64_t seed) {
  return "{\"op\":\"submit\",\"scenario\":\"nexus\",\"duration_s\":2,"
         "\"seed\":" +
         std::to_string(seed) + "}";
}

// Minimal blocking NDJSON client for a loopback NetServer.
class LineClient {
 public:
  explicit LineClient(int port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (rcvbuf > 0) {
      // Must be set before connect so the small window is negotiated.
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  void send_all(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  }

  std::string request(const std::string& line) {
    send_all(line + "\n");
    return recv_line();
  }

  std::string recv_line() {
    while (true) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      if (!fill()) return {};
    }
  }

  /// Every byte up to the server's EOF.
  std::string recv_all() {
    while (fill()) {
    }
    return std::exchange(buf_, {});
  }

  /// Half-close: the server sees EOF, and can still answer.
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

 private:
  bool fill() {
    char chunk[4096];
    ssize_t n = 0;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

// A NetServer over its own backend, running on a background thread.
struct ServerHarness {
  explicit ServerHarness(SimService& service, NetServerConfig cfg = {})
      : server(service), net(server, cfg), thread([this] { net.run(); }) {}
  ~ServerHarness() {
    net.stop();
    thread.join();
  }
  SimServer server;
  NetServer net;
  std::thread thread;
};

// --- socket front end ------------------------------------------------------

TEST(NetServer, SocketResponsesMatchStdinBytes) {
  // Same request script over a pipe-mode SimServer and over a socket; the
  // response lines must be byte-identical.
  SimService pipe_service(ScenarioRegistry::standard(), small_config());
  SimServer pipe_server(pipe_service);

  SimService socket_service(ScenarioRegistry::standard(), small_config());
  ServerHarness harness(socket_service);
  LineClient client(harness.net.port());
  ASSERT_TRUE(client.ok());

  const std::vector<std::string> script = {
      submit_line(1),
      "{\"op\":\"wait\",\"job\":1,\"timeout_s\":600}",
      "{\"op\":\"result\",\"job\":1}",
      submit_line(1),  // cache hit
      "{\"op\":\"result\",\"job\":2}",
      "{\"op\":\"scenarios\"}",
  };
  for (const std::string& line : script) {
    EXPECT_EQ(client.request(line), pipe_server.handle_line(line)) << line;
  }
}

TEST(NetServer, ConcurrentConnectionsMatchSingleConnectionBytes) {
  SimService service(ScenarioRegistry::standard(), small_config(8));
  ServerHarness harness(service);
  const int port = harness.net.port();

  // Reference pass, one connection: warm every distinct request and record
  // the full result line for each seed.
  constexpr std::uint64_t kSeeds = 6;
  std::map<std::uint64_t, std::string> reference;
  {
    LineClient ref(port);
    ASSERT_TRUE(ref.ok());
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      const std::string submitted = ref.request(submit_line(seed));
      const json::Value v = json::Value::parse(submitted);
      ASSERT_TRUE(v.find("ok")->as_bool()) << submitted;
      const auto id =
          static_cast<std::uint64_t>(v.find("job")->as_number());
      ref.request("{\"op\":\"wait\",\"job\":" + std::to_string(id) +
                  ",\"timeout_s\":600}");
      const std::string result =
          ref.request("{\"op\":\"result\",\"job\":" + std::to_string(id) +
                      "}");
      // Strip the job id so cache-hit responses (new id, same payload)
      // compare equal: everything from "result": on is the payload.
      reference[seed] = result.substr(result.find("\"result\":"));
    }
  }

  // 8 concurrent clients × all seeds, interleaved. Every result payload
  // must match the single-connection reference byte for byte.
  constexpr int kClients = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client(port);
      if (!client.ok()) {
        mismatches.fetch_add(100);
        return;
      }
      for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const std::uint64_t pick = (seed + static_cast<std::uint64_t>(c)) %
                                   kSeeds;  // staggered order per client
        const std::string submitted = client.request(submit_line(pick));
        json::Value v;
        try {
          v = json::Value::parse(submitted);
        } catch (...) {
          mismatches.fetch_add(1);
          continue;
        }
        if (!v.find("ok")->as_bool()) {
          mismatches.fetch_add(1);
          continue;
        }
        const auto id =
            static_cast<std::uint64_t>(v.find("job")->as_number());
        client.request("{\"op\":\"wait\",\"job\":" + std::to_string(id) +
                       ",\"timeout_s\":600}");
        const std::string result = client.request(
            "{\"op\":\"result\",\"job\":" + std::to_string(id) + "}");
        const std::size_t at = result.find("\"result\":");
        if (at == std::string::npos ||
            result.substr(at) != reference[pick]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(harness.net.counters().connections_accepted,
            static_cast<std::uint64_t>(kClients) + 1);
}

// `requests` lines alternating a ~1.4 KB `scenarios` response with a
// short unknown_job error that names its line's index, so order shows.
std::string response_burst(int requests) {
  std::string burst;
  for (int i = 0; i < requests; ++i) {
    burst += i % 2 == 0 ? "{\"op\":\"scenarios\"}\n"
                        : "{\"op\":\"status\",\"job\":" +
                              std::to_string(i) + "}\n";
  }
  return burst;
}

// Waits until the server has sent nothing for 300 ms: a connection thread
// is blocked in send. False after 20 s.
bool wait_for_send_stall(const NetServer& net) {
  std::uint64_t last = net.counters().bytes_out;
  for (int i = 0, quiet = 0; i < 2000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::uint64_t sent = net.counters().bytes_out;
    quiet = sent == last && sent > 0 ? quiet + 1 : 0;
    if (quiet == 30) return true;
    last = sent;
  }
  return false;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(NetServer, AClientThatReadsNothingStallsOnlyItsOwnConnection) {
  SimService service(ScenarioRegistry::standard(), small_config(2));
  ServerHarness harness(service);
  LineClient slow(harness.net.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(slow.ok());

  // ~5.9 MB of responses, more than the socket buffers hold (Linux caps
  // an autotuned send buffer at 4 MiB by default), to a client that
  // reads nothing yet: its connection's thread blocks in send, and TCP
  // flow control holds the rest of the burst in the kernel.
  constexpr int kRequests = 8000;
  const std::string burst = response_burst(kRequests);
  std::thread writer([&] { slow.send_all(burst); });
  EXPECT_TRUE(wait_for_send_stall(harness.net));

  // A second connection is served in the meantime.
  LineClient other(harness.net.port());
  EXPECT_TRUE(other.ok());
  const auto asked = std::chrono::steady_clock::now();
  EXPECT_NE(other.request("{\"op\":\"stats\"}").find("\"ok\":true"),
            std::string::npos);
  EXPECT_LT(ms_since(asked), 1000.0);
  EXPECT_LE(harness.net.counters().requests,
            static_cast<std::uint64_t>(kRequests));  // the burst is not done

  // Then every response arrives intact and in order.
  const std::string scenarios = slow.recv_line();
  EXPECT_TRUE(json::Value::parse(scenarios).find("ok")->as_bool());
  for (int i = 1; i < kRequests; ++i) {
    const std::string line = slow.recv_line();
    const std::string want = i % 2 == 0 ? scenarios
                                        : "unknown job: " +
                                              std::to_string(i) + "\"";
    if (line.find(want) == std::string::npos) {
      ADD_FAILURE() << "response " << i << ": " << line;
      break;  // still join the writer below
    }
  }
  writer.join();
  EXPECT_EQ(harness.net.counters().requests,
            static_cast<std::uint64_t>(kRequests) + 1);
}

TEST(NetServer, AWaitStallsOnlyItsOwnConnection) {
  // One worker: the long run below holds it, so A's 5-s wait cannot end
  // sooner.
  SimService service(ScenarioRegistry::standard(), small_config(1));
  ServerHarness harness(service);
  LineClient a(harness.net.port());
  LineClient b(harness.net.port());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  ASSERT_NE(b.request(submit_line(1)).find("\"ok\":true"), std::string::npos);
  b.request("{\"op\":\"wait\",\"job\":1,\"timeout_s\":600}");
  const auto cached_submit_ms = [&] {
    const auto asked = std::chrono::steady_clock::now();
    const std::string response = b.request(submit_line(1));
    const double ms = ms_since(asked);
    EXPECT_NE(response.find("\"cached\":true"), std::string::npos)
        << response;
    EXPECT_LT(ms, 1000.0);
    return ms;
  };
  const auto p50 = [](std::vector<double> ms) {
    std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
    return ms[ms.size() / 2];
  };
  constexpr int kSamples = 15;
  std::vector<double> unloaded;
  for (int i = 0; i < kSamples; ++i) unloaded.push_back(cached_submit_ms());

  const json::Value long_run = json::Value::parse(
      a.request("{\"op\":\"submit\",\"scenario\":\"nexus\","
                "\"duration_s\":100000,\"seed\":9}"));
  ASSERT_TRUE(long_run.find("ok")->as_bool());
  const std::string long_id = std::to_string(
      static_cast<std::uint64_t>(long_run.find("job")->as_number()));
  const std::string wait =
      "{\"op\":\"wait\",\"job\":" + long_id + ",\"timeout_s\":5}\n";
  const std::uint64_t framed = harness.net.counters().bytes_in + wait.size();
  const auto waited = std::chrono::steady_clock::now();
  a.send_all(wait);
  for (int i = 0; i < 10000 && harness.net.counters().bytes_in < framed;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(harness.net.counters().bytes_in, framed);

  // B is served while A waits.
  const auto asked = std::chrono::steady_clock::now();
  EXPECT_NE(b.request("{\"op\":\"stats\"}").find("\"ok\":true"),
            std::string::npos);
  EXPECT_LT(ms_since(asked), 1000.0);
  std::vector<double> loaded;
  for (int i = 0; i < kSamples; ++i) loaded.push_back(cached_submit_ms());
  EXPECT_LT(ms_since(waited), 5000.0);  // all of it inside A's wait

  // Cancelling the run ends A's wait early.
  b.request("{\"op\":\"cancel\",\"job\":" + long_id + "}");
  EXPECT_NE(a.recv_line().find("\"op\":\"wait\""), std::string::npos);
  std::printf("cached-submit p50: %.3f ms unloaded, %.3f ms during a wait\n",
              p50(unloaded), p50(loaded));
}

TEST(NetServer, OversizedLineGetsStructuredErrorAndConnectionSurvives) {
  SimService service(ScenarioRegistry::standard(), small_config());
  ServerHarness harness(service);
  LineClient client(harness.net.port());
  ASSERT_TRUE(client.ok());

  client.send_all(std::string(kMaxLineBytes + 512, 'x') + "\n");
  const std::string err = client.recv_line();
  EXPECT_NE(err.find("oversized_line"), std::string::npos) << err;
  EXPECT_NE(err.find("\"ok\":false"), std::string::npos);

  // The connection survives and the next request is handled normally.
  const std::string stats = client.request("{\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(harness.net.counters().oversized_lines, 1u);
}

// {"op":"stats"} padded with spaces to `bytes` bytes.
std::string padded_stats(std::size_t bytes) {
  std::string line = "{\"op\":\"stats\"";
  line.append(bytes - line.size() - 1, ' ');
  return line + "}";
}

TEST(NetServer, LineLengthRuleIsTheSameOnBothFrontsAtEverySplit) {
  // One framing rule: a line is the bytes before its '\n' less one
  // trailing '\r', and is oversized when that is longer than
  // kMaxLineBytes. Each input goes to SimServer::serve whole and to a
  // socket in two sends, split at each of its last four offsets (between
  // '\r' and '\n' too); the responses must be byte-identical.
  const std::vector<std::string> inputs = {
      padded_stats(kMaxLineBytes) + "\r\n",        // at the cap: parsed
      padded_stats(kMaxLineBytes) + "\n",           // at the cap: parsed
      padded_stats(kMaxLineBytes + 1) + "\r\n",    // one past: oversized
      padded_stats(kMaxLineBytes - 1) + "\r\r\n",  // keeps a '\r': parsed
  };
  const std::string next = "{\"op\":\"stats\"}\n";
  for (const std::string& input : inputs) {
    SimService pipe_service(ScenarioRegistry::standard(), small_config());
    SimServer pipe_server(pipe_service);
    std::istringstream in(input + next);
    std::ostringstream out;
    pipe_server.serve(in, out);

    SimService socket_service(ScenarioRegistry::standard(), small_config());
    ServerHarness harness(socket_service);
    for (std::size_t split = input.size() - 4; split < input.size(); ++split) {
      LineClient client(harness.net.port());
      ASSERT_TRUE(client.ok());
      const std::uint64_t framed = harness.net.counters().bytes_in + split;
      client.send_all(input.substr(0, split));
      // The loop frames the first part alone before the rest is sent.
      for (int i = 0; i < 10000 && harness.net.counters().bytes_in < framed;
           ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_EQ(harness.net.counters().bytes_in, framed);
      client.send_all(input.substr(split) + next);
      const std::string first = client.recv_line();
      const std::string second = client.recv_line();
      EXPECT_EQ(first + "\n" + second + "\n", out.str())
          << input.size() << "-byte input split at " << split;
    }
  }
}

TEST(NetServer, AHalfClosedSocketAnswersItsLastLineLikeStdin) {
  // A last request with no '\n', then EOF: stdin answers it, and so must
  // a socket whose client shuts down its sending side.
  for (const std::string input :
       {"{\"op\":\"stats\"}", "{\"op\":\"stats\"}\r"}) {
    SimService pipe_service(ScenarioRegistry::standard(), small_config());
    SimServer pipe_server(pipe_service);
    std::istringstream in(input);
    std::ostringstream out;
    pipe_server.serve(in, out);
    ASSERT_NE(out.str().find("\"op\":\"stats\""), std::string::npos);

    SimService socket_service(ScenarioRegistry::standard(), small_config());
    ServerHarness harness(socket_service);
    LineClient client(harness.net.port());
    ASSERT_TRUE(client.ok());
    client.send_all(input);
    client.shutdown_write();
    EXPECT_EQ(client.recv_all(), out.str()) << input;
  }
}

TEST(NetServer, BlankLinesGetNoResponse) {
  // The framing rule stdin shares: lines of only spaces, tabs and CRs
  // are ignored, so the stats request is the first and only one handled.
  SimService service(ScenarioRegistry::standard(), small_config());
  ServerHarness harness(service);
  LineClient client(harness.net.port());
  ASSERT_TRUE(client.ok());

  client.send_all("   \n\t\n{\"op\":\"stats\"}\n");
  const std::string response = client.recv_line();
  EXPECT_NE(response.find("\"op\":\"stats\""), std::string::npos)
      << response;
  EXPECT_EQ(harness.net.counters().requests, 1u);
}

TEST(NetServer, ConnectionsBeyondTheCapAreClosedUnanswered) {
  SimService service(ScenarioRegistry::standard(), small_config());
  NetServerConfig cfg;
  cfg.max_connections = 2;
  ServerHarness harness(service, cfg);
  LineClient first(harness.net.port());
  LineClient second(harness.net.port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // A served request proves each connection was accepted before the third
  // one arrives.
  const std::string stats = "{\"op\":\"stats\"}";
  EXPECT_NE(first.request(stats).find("\"ok\":true"), std::string::npos);
  EXPECT_NE(second.request(stats).find("\"ok\":true"), std::string::npos);

  LineClient third(harness.net.port());
  ASSERT_TRUE(third.ok());  // the kernel completes the handshake
  EXPECT_EQ(third.request(stats), "");  // closed without a response
  EXPECT_EQ(harness.net.counters().connections_refused, 1u);

  EXPECT_NE(first.request(stats).find("\"ok\":true"), std::string::npos);
  EXPECT_NE(second.request(stats).find("\"ok\":true"), std::string::npos);
}

TEST(NetServer, StatsOpHasNoShardsAndKeepsTheBenchmarkCounters) {
  SimService service(ScenarioRegistry::standard(), small_config(3));
  ServerHarness harness(service);
  LineClient client(harness.net.port());
  ASSERT_TRUE(client.ok());

  const json::Value stats =
      json::Value::parse(client.request("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.find("ok")->as_bool());
  EXPECT_EQ(stats.find("shards"), nullptr);
  // Every member the end-to-end benchmark harness reads, and the queue's
  // saturation signals.
  for (const char* member :
       {"submitted", "completed", "compares", "compare_rounds",
        "compare_lane_runs", "compare_lane_hits", "queued", "retry_backlog",
        "running"}) {
    ASSERT_NE(stats.find(member), nullptr) << member;
    EXPECT_TRUE(stats.find(member)->is_number()) << member;
  }
  const json::Value* cache = stats.find("cache");
  ASSERT_NE(cache, nullptr);
  for (const char* member : {"hits", "misses", "evictions"}) {
    ASSERT_NE(cache->find(member), nullptr) << member;
    EXPECT_TRUE(cache->find(member)->is_number()) << member;
  }
  EXPECT_EQ(stats.find("workers")->as_number(), 3.0);
}

TEST(NetServer, ShutdownOpStopsTheLoopAfterAcknowledging) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  NetServer net(server);
  std::thread thread([&] { net.run(); });

  LineClient client(net.port());
  ASSERT_TRUE(client.ok());
  const std::string ack = client.request("{\"op\":\"shutdown\"}");
  EXPECT_NE(ack.find("\"ok\":true"), std::string::npos);
  thread.join();  // run() returns once shutdown is handled
  EXPECT_TRUE(server.shutdown_requested());
}

// Starts `net` serving, calls `connect` to set its connections up, then
// times stop() until run() has returned.
template <typename Connect>
double ms_to_stop(NetServer& net, Connect connect) {
  std::thread thread([&] { net.run(); });
  connect();
  const auto stopping = std::chrono::steady_clock::now();
  net.stop();
  thread.join();
  return ms_since(stopping);
}

TEST(NetServer, StopReturnsWithinASecondWithAnIdleConnectionOpen) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  NetServer net(server);
  LineClient idle(net.port());
  ASSERT_TRUE(idle.ok());
  EXPECT_LT(ms_to_stop(net,
                       [&] {
                         // Served once, so its thread sits in recv.
                         EXPECT_NE(idle.request("{\"op\":\"stats\"}")
                                       .find("\"ok\":true"),
                                   std::string::npos);
                       }),
            1000.0);
  EXPECT_EQ(idle.recv_line(), "");  // closed
}

TEST(NetServer, StopReturnsWithinASecondWithAConnectionBlockedInSend) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  NetServer net(server);
  LineClient slow(net.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(slow.ok());
  const std::string burst = response_burst(8000);
  std::thread writer;
  EXPECT_LT(ms_to_stop(net,
                       [&] {
                         writer = std::thread([&] { slow.send_all(burst); });
                         EXPECT_TRUE(wait_for_send_stall(net));
                       }),
            1000.0);
  writer.join();  // the server's close ends a blocked send too
}

// Makes every thread start fail while alive, without creating one: the
// default stack is set larger than the address space.
class NoThreadStarts {
 public:
  NoThreadStarts() {
    pthread_getattr_default_np(&saved_);
    pthread_attr_t huge;
    pthread_attr_init(&huge);
    pthread_attr_setstacksize(&huge, std::size_t{1} << 50);
    ok_ = pthread_setattr_default_np(&huge) == 0;
    pthread_attr_destroy(&huge);
  }
  ~NoThreadStarts() {
    pthread_setattr_default_np(&saved_);
    pthread_attr_destroy(&saved_);
  }
  bool ok() const { return ok_; }

 private:
  pthread_attr_t saved_;
  bool ok_ = false;
};

TEST(NetServer, AConnectionWhoseThreadCannotStartIsRefused) {
  SimService service(ScenarioRegistry::standard(), small_config());
  ServerHarness harness(service);
  const std::string stats = "{\"op\":\"stats\"}";
  {
    const NoThreadStarts no_threads;
    ASSERT_TRUE(no_threads.ok());
    LineClient refused(harness.net.port());
    ASSERT_TRUE(refused.ok());  // the kernel completes the handshake
    EXPECT_EQ(refused.request(stats), "");  // closed without a response
  }
  EXPECT_EQ(harness.net.counters().connections_refused, 1u);
  EXPECT_EQ(harness.net.counters().connections_accepted, 0u);

  LineClient served(harness.net.port());
  ASSERT_TRUE(served.ok());
  EXPECT_NE(served.request(stats).find("\"ok\":true"), std::string::npos);
}

TEST(NetServer, PortOutsideTheTcpRangeIsAConfigError) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  for (const int port : {65536, 70000, -1}) {
    NetServerConfig cfg;
    cfg.port = port;
    EXPECT_THROW(NetServer(server, cfg), util::ConfigError) << port;
  }
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(NetServer, ConstructorFailuresReleaseEveryDescriptor) {
  // Both failures come after the listen socket exists, so each throw must
  // still release it.
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  const NetServer holder(server);
  const std::size_t before = open_fd_count();

  NetServerConfig bad_host;
  bad_host.host = "not-an-address";
  EXPECT_THROW(NetServer(server, bad_host), util::ConfigError);
  EXPECT_EQ(open_fd_count(), before);

  NetServerConfig taken;
  taken.port = holder.port();
  EXPECT_THROW(NetServer(server, taken), util::ConfigError);
  EXPECT_EQ(open_fd_count(), before);
}

}  // namespace
}  // namespace mobitherm::service
