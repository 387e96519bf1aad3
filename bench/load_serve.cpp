// Socket front-end load generator: many concurrent pipelined connections
// driving an in-process NetServer with a Zipf-distributed request mix,
// reporting end-to-end latency percentiles (p50/p95/p99), saturation
// throughput and the cache hit rate.
//
// The pinned invariant, asserted in main() before the benchmarks run: on
// loopback with a cache-warm Zipf mix the server must sustain at least
// 5,000 requests/second. The timed phase is submit-only over previously
// warmed keys — every request is a cache probe plus response splice, which
// is exactly the service's steady state when a fleet of clients re-runs a
// shared scenario mix — so the number measures the front end (epoll loop,
// line framing, cache lookup), not simulation speed.
//
// The load loop is a single poll()-driven thread with a fixed per-
// connection pipeline window: with C connections x W window there are
// C*W requests in flight at all times (thousands for the headline run).
// Latency is measured per request from the moment it is queued on a
// connection to the moment its response line is parsed off that
// connection — responses come back in order per connection, so a FIFO of
// send timestamps per connection is enough.
//
// All randomness is deterministic: key picks come from splitmix64 over a
// (connection, sequence) counter mapped through the Zipf CDF, so every
// run issues the identical request stream.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "service/net_server.h"
#include "service/scenario_registry.h"
#include "service/server.h"
#include "service/service.h"
#include "util/hash.h"
#include "util/json.h"

namespace {

using namespace mobitherm;
namespace json = util::json;
using clock_type = std::chrono::steady_clock;

constexpr std::size_t kDistinctKeys = 32;
constexpr double kZipfExponent = 0.99;

service::ServiceConfig serve_config() {
  service::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 256;
  cfg.cache_capacity = 256;  // the whole key set stays resident
  return cfg;
}

/// The K distinct request lines of the mix; the seed varies the key.
std::vector<std::string> request_lines() {
  std::vector<std::string> lines;
  lines.reserve(kDistinctKeys);
  for (std::size_t k = 0; k < kDistinctKeys; ++k) {
    lines.push_back(
        "{\"op\":\"submit\",\"scenario\":\"nexus\",\"duration_s\":2,"
        "\"seed\":" +
        std::to_string(k) + "}");
  }
  return lines;
}

/// Zipf CDF over kDistinctKeys ranks: weight(i) = 1/(i+1)^s.
std::vector<double> zipf_cdf() {
  std::vector<double> cdf(kDistinctKeys);
  double total = 0.0;
  for (std::size_t i = 0; i < kDistinctKeys; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::size_t zipf_pick(const std::vector<double>& cdf, std::uint64_t counter) {
  const double u = util::hash_to_unit(util::splitmix64(counter));
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

/// Server + backend bundle, listening on an ephemeral loopback port with
/// its event loop on a background thread.
struct ServeFixture {
  ServeFixture()
      : service(service::ScenarioRegistry::standard(), serve_config()),
        server(service),
        net(server),
        thread([this] { net.run(); }) {}
  ~ServeFixture() {
    net.stop();
    thread.join();
  }

  service::SimService service;
  service::SimServer server;
  service::NetServer net;
  std::thread thread;
};

int connect_loopback(int port, bool nonblocking = false) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    std::fprintf(stderr, "load_serve: connect failed: %s\n",
                 std::strerror(errno));
    std::abort();
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (nonblocking) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
  return fd;
}

/// Blocking single-request helper for warmup and stats (its own
/// connection, closed on destruction).
class ControlClient {
 public:
  explicit ControlClient(int port) : fd_(connect_loopback(port)) {}
  ~ControlClient() { ::close(fd_); }

  std::string request(const std::string& line) {
    std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + off, out.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) std::abort();
      off += static_cast<std::size_t>(n);
    }
    while (buf_.find('\n') == std::string::npos) {
      char chunk[16 * 1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) std::abort();
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::size_t nl = buf_.find('\n');
    std::string line_out = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return line_out;
  }

 private:
  int fd_;
  std::string buf_;
};

/// Run every distinct key to completion once so the timed phase is pure
/// cache hits.
void warm_cache(int port, const std::vector<std::string>& lines) {
  ControlClient control(port);
  for (const std::string& line : lines) {
    const json::Value submit =
        json::Value::parse(control.request(line));
    if (!submit.find("ok")->as_bool()) {
      std::fprintf(stderr, "load_serve: warmup submit rejected\n");
      std::abort();
    }
    const auto job =
        static_cast<std::uint64_t>(submit.find("job")->as_number());
    const json::Value wait = json::Value::parse(
        control.request("{\"op\":\"wait\",\"job\":" + std::to_string(job) +
                        ",\"timeout_s\":600}"));
    if (!wait.find("done")->as_bool()) {
      std::fprintf(stderr, "load_serve: warmup job never finished\n");
      std::abort();
    }
  }
}

struct LoadResult {
  double elapsed_s = 0.0;
  double req_per_s = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double hit_rate = 0.0;  // over the timed phase, from stats deltas
  std::size_t responses = 0;
};

struct LoadConn {
  int fd = -1;
  std::string in;
  std::string out;
  std::deque<clock_type::time_point> sent;  // FIFO of in-flight send times
  std::size_t to_send = 0;                  // requests not yet queued
  std::uint64_t counter = 0;                // Zipf sequence counter
};

struct CacheCounts {
  std::size_t hits = 0;
  std::size_t misses = 0;
};

CacheCounts cache_counts(const json::Value& stats) {
  const json::Value* cache = stats.find("cache");
  return {static_cast<std::size_t>(cache->find("hits")->as_number()),
          static_cast<std::size_t>(cache->find("misses")->as_number())};
}

/// The pipelined load loop: `connections` sockets, each keeping `window`
/// requests in flight, `per_conn` requests per connection in total.
LoadResult run_load(int port, std::size_t connections, std::size_t window,
                    std::size_t per_conn) {
  const std::vector<std::string> lines = request_lines();
  const std::vector<double> cdf = zipf_cdf();

  ControlClient control(port);
  const CacheCounts before =
      cache_counts(json::Value::parse(
          control.request("{\"op\":\"stats\"}")));

  std::vector<LoadConn> conns(connections);
  std::vector<pollfd> fds(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    conns[c].fd = fds[c].fd = connect_loopback(port, /*nonblocking=*/true);
    conns[c].to_send = per_conn;
    // Distinct counter streams per connection keep the pick sequence
    // deterministic and non-overlapping.
    conns[c].counter = static_cast<std::uint64_t>(c) * 0x9e3779b97f4a7c15ULL;
  }

  std::vector<double> latencies_us;
  latencies_us.reserve(connections * per_conn);
  const std::size_t total = connections * per_conn;
  std::size_t responses = 0;

  const auto t0 = clock_type::now();
  while (responses < total) {
    for (std::size_t c = 0; c < connections; ++c) {
      LoadConn& conn = conns[c];
      // Top up the pipeline window with freshly picked Zipf keys.
      while (conn.to_send > 0 && conn.sent.size() < window) {
        const std::size_t key = zipf_pick(cdf, conn.counter++);
        conn.out += lines[key];
        conn.out += '\n';
        conn.sent.push_back(clock_type::now());
        --conn.to_send;
      }
      fds[c].events = static_cast<short>(
          POLLIN | (conn.out.empty() ? 0 : POLLOUT));
    }
    if (::poll(fds.data(), fds.size(), 1000) < 0) {
      if (errno == EINTR) continue;
      std::abort();
    }
    for (std::size_t c = 0; c < connections; ++c) {
      LoadConn& conn = conns[c];
      if (fds[c].revents & POLLOUT) {
        while (!conn.out.empty()) {
          const ssize_t n = ::send(conn.fd, conn.out.data(),
                                   conn.out.size(), MSG_NOSIGNAL);
          if (n <= 0) break;  // EAGAIN: kernel buffer full, poll again
          conn.out.erase(0, static_cast<std::size_t>(n));
        }
      }
      if (fds[c].revents & (POLLIN | POLLHUP)) {
        char chunk[64 * 1024];
        while (true) {
          const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
          if (n <= 0) break;
          conn.in.append(chunk, static_cast<std::size_t>(n));
        }
        std::size_t start = 0;
        while (true) {
          const std::size_t nl = conn.in.find('\n', start);
          if (nl == std::string::npos) break;
          const auto now = clock_type::now();
          latencies_us.push_back(
              std::chrono::duration<double, std::micro>(
                  now - conn.sent.front())
                  .count());
          conn.sent.pop_front();
          ++responses;
          start = nl + 1;
        }
        conn.in.erase(0, start);
      }
    }
  }
  const auto t1 = clock_type::now();
  for (LoadConn& conn : conns) ::close(conn.fd);

  const CacheCounts after =
      cache_counts(json::Value::parse(
          control.request("{\"op\":\"stats\"}")));

  LoadResult result;
  result.responses = responses;
  result.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  result.req_per_s =
      result.elapsed_s > 0.0 ? responses / result.elapsed_s : 0.0;
  std::sort(latencies_us.begin(), latencies_us.end());
  auto percentile = [&](double p) {
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(latencies_us.size() - 1));
    return latencies_us[idx];
  };
  result.p50_us = percentile(0.50);
  result.p95_us = percentile(0.95);
  result.p99_us = percentile(0.99);

  const std::size_t hits_delta = after.hits - before.hits;
  const std::size_t lookups_delta =
      hits_delta + (after.misses - before.misses);
  result.hit_rate = lookups_delta > 0
                        ? static_cast<double>(hits_delta) / lookups_delta
                        : 0.0;
  return result;
}

void report(const char* tag, const LoadResult& r) {
  std::printf(
      "%s: %zu responses in %.3f s -> %.0f req/s | latency p50 %.1f us "
      "p95 %.1f us p99 %.1f us | timed-phase hit rate %.3f\n",
      tag, r.responses, r.elapsed_s, r.req_per_s, r.p50_us, r.p95_us,
      r.p99_us, r.hit_rate);
}

/// The pinned invariant: the cache-warm Zipf mix sustains >= 5,000 req/s
/// on loopback, with every request answered.
bool check_saturation_throughput() {
  ServeFixture fixture;
  warm_cache(fixture.net.port(), request_lines());
  // 8 connections x 256 in flight = 2048 requests pipelined at all times.
  const LoadResult r =
      run_load(fixture.net.port(), /*connections=*/8, /*window=*/256,
               /*per_conn=*/2500);
  report("load_serve", r);
  if (r.responses != 8 * 2500) {
    std::fprintf(stderr, "load_serve: dropped %zu responses\n",
                 8 * 2500 - r.responses);
    return false;
  }
  if (r.hit_rate < 0.999) {
    std::fprintf(stderr,
                 "load_serve: timed phase was not cache-warm (hit rate "
                 "%.3f)\n",
                 r.hit_rate);
    return false;
  }
  if (r.req_per_s < 5000.0) {
    std::fprintf(stderr,
                 "load_serve: %.0f req/s is below the pinned 5000 req/s "
                 "floor\n",
                 r.req_per_s);
    return false;
  }
  return true;
}

void BM_LoadServeZipf(benchmark::State& state) {
  ServeFixture fixture;
  warm_cache(fixture.net.port(), request_lines());
  LoadResult last;
  for (auto _ : state) {
    last = run_load(fixture.net.port(), /*connections=*/4, /*window=*/128,
                    /*per_conn=*/1000);
  }
  state.counters["req_per_s"] = last.req_per_s;
  state.counters["p50_us"] = last.p50_us;
  state.counters["p95_us"] = last.p95_us;
  state.counters["p99_us"] = last.p99_us;
  state.counters["hit_rate"] = last.hit_rate;
}
BENCHMARK(BM_LoadServeZipf)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  if (!check_saturation_throughput()) {
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
