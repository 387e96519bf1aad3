// Socket front-end tests: byte-identity of responses across stdin / one
// socket / many concurrent connections, connection-level backpressure that
// never drops a framed response, the stats op's members, oversized-line
// / shutdown handling on live sockets, and the constructor's failure paths
// releasing every descriptor. The concurrent cases are the TSan targets
// for the net front end.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
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
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return {};
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
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

TEST(NetServer, BackpressureParksReadsWithoutDroppingResponses) {
  SimService service(ScenarioRegistry::standard(), small_config(2));
  NetServerConfig cfg;
  cfg.write_buffer_limit = 1024;   // tiny: a few responses trip the stall
  cfg.send_buffer_bytes = 4096;    // cap kernel-side slack deterministically
  ServerHarness harness(service, cfg);
  LineClient client(harness.net.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(client.ok());

  // Burst-write far more request bytes than the server may buffer in
  // responses. `scenarios` responses are hundreds of bytes each, so the
  // 1 KiB write budget plus the few KiB of capped socket buffers fill
  // immediately and the loop must park EPOLLIN on this connection; TCP
  // flow control then holds the rest of the burst in the kernel until the
  // reader below drains it.
  constexpr int kRequests = 400;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) burst += "{\"op\":\"scenarios\"}\n";
  std::thread writer([&] { client.send_all(burst); });

  int ok_lines = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::string line = client.recv_line();
    ASSERT_FALSE(line.empty()) << "response " << i << " missing";
    const json::Value v = json::Value::parse(line);  // framed + parseable
    if (v.find("ok")->as_bool()) ++ok_lines;
  }
  writer.join();
  EXPECT_EQ(ok_lines, kRequests);
  const NetServer::Counters counters = harness.net.counters();
  EXPECT_EQ(counters.requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(counters.backpressure_stalls, 1u);
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
