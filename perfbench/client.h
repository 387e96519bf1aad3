// Socket clients for the serve_cold and serve_warm workloads: a blocking
// closed-loop client and a pipelined fixed-window client, both speaking
// mobitherm_serve's NDJSON protocol over one loopback connection.
//
// The clients scan responses for the few members they need ("ok", job ids,
// the spliced "result" payload) instead of parsing them: parsing a 1.9 KB
// result line costs far more than the server spends producing it, and the
// generator must not become the bottleneck it is measuring.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "gen.h"

namespace perfbench {

/// Seconds one protocol `wait` may block; a job not done by then counts
/// as failed.
inline constexpr double kWaitTimeoutS = 60.0;

/// Process CPU time (user + system) of `pid`, 0 = this process.
inline double proc_cpu_s(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/stat")
                            : "/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) {
    return -1.0;
  }
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::vector<std::string> fields;
  std::size_t pos = paren + 2;
  while (pos < stat.size() && fields.size() < 13) {
    const std::size_t sp = stat.find(' ', pos);
    fields.push_back(stat.substr(pos, sp - pos));
    if (sp == std::string::npos) {
      break;
    }
    pos = sp + 1;
  }
  if (fields.size() < 13) {
    return -1.0;
  }
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return (std::stod(fields[11]) + std::stod(fields[12])) / ticks;
}

/// A "Vm...:" field of /proc/<pid>/status in kB, 0 = this process.
inline double proc_status_kb(int pid, const std::string& field) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size()));
    }
  }
  return -1.0;
}

inline bool ok_response(std::string_view line) {
  return line.rfind("{\"ok\":true", 0) == 0;
}

/// Reads the unsigned integer after the next `key` at or after `pos`;
/// advances `pos` past it. False when the key is absent.
inline bool scan_u64(std::string_view line, std::string_view key,
                     std::size_t& pos, std::uint64_t& out) {
  const std::size_t at = line.find(key, pos);
  if (at == std::string_view::npos) {
    return false;
  }
  std::size_t i = at + key.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') {
    return false;
  }
  out = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    out = out * 10 + static_cast<std::uint64_t>(line[i] - '0');
    ++i;
  }
  pos = i;
  return true;
}

/// The stored payload a `result` response splices in after "result":.
inline std::string_view payload_of(std::string_view result_line) {
  static constexpr std::string_view kMarker = "\"result\":";
  const std::size_t at = result_line.find(kMarker);
  if (at == std::string_view::npos || result_line.back() != '}') {
    return {};
  }
  const std::size_t begin = at + kMarker.size();
  return result_line.substr(begin, result_line.size() - 1 - begin);
}

/// Job ids of a submit or compare response, in lane order.
inline std::vector<std::uint64_t> job_ids(std::string_view line) {
  std::vector<std::uint64_t> ids;
  std::size_t pos = 0;
  std::uint64_t id = 0;
  while (scan_u64(line, "\"job\":", pos, id)) {
    ids.push_back(id);
  }
  return ids;
}

/// Simulated seconds behind a compare verdict: both arms' lanes.
inline double verdict_sim_s(std::string_view payload) {
  std::size_t pos = 0;
  std::uint64_t seeds = 0;
  if (!scan_u64(payload, "\"seeds_per_arm\":", pos, seeds)) {
    return 0.0;
  }
  return static_cast<double>(seeds) * 2.0 * kRunSimSeconds;
}

/// One loopback TCP connection with a line-buffered reader.
class Conn {
 public:
  explicit Conn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect: " + why);
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  std::string& buffer() { return in_; }

  void set_nonblocking(bool on) {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
  }

  void send_all(std::string_view data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 &&
            (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
          continue;  // EAGAIN: a nonblocking socket's buffer is full
        }
        throw std::runtime_error("send: connection lost");
      }
      off += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      const std::size_t nl = in_.find('\n');
      if (nl != std::string::npos) {
        std::string line = in_.substr(0, nl);
        in_.erase(0, nl + 1);
        return line;
      }
      char chunk[64 * 1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) {
          continue;
        }
        throw std::runtime_error("recv: response dropped");
      }
      in_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string request(const std::string& line) {
    send_all(line + "\n");
    return read_line();
  }

  /// read_line for a socket set nonblocking: spins instead of sleeping in
  /// recv, so a latency probe does not time this process's own wake-up.
  std::string read_line_spinning() {
    for (;;) {
      const std::size_t nl = in_.find('\n');
      if (nl != std::string::npos) {
        std::string line = in_.substr(0, nl);
        in_.erase(0, nl + 1);
        return line;
      }
      char chunk[64 * 1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        in_.append(chunk, static_cast<std::size_t>(n));
      } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                            errno != EINTR)) {
        throw std::runtime_error("recv: response dropped");
      }
    }
  }

 private:
  int fd_ = -1;
  std::string in_;
};

/// Outcome tally shared by every client: ops attempted and failed, plus
/// correctness-gate violations.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report
  std::vector<std::string> errors;    // gate violations: output incorrect

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) {
      failures.push_back(what);
    }
  }
  void error(const std::string& what) {
    if (errors.size() < 8) {
      errors.push_back(what);
    }
  }
};

/// Closed-loop protocol client: every op is submit -> wait -> result on
/// one connection, each protocol call under its own span.
class BlockingClient {
 public:
  BlockingClient(Conn& conn, Tally& tally, SpanLog& spans)
      : conn_(conn), tally_(tally), spans_(spans) {}

  /// Sends a submit or compare line; returns its job ids, empty when the
  /// request was rejected or answered with an error.
  std::vector<std::uint64_t> admit(const std::string& line, const char* name,
                                   std::int64_t parent) {
    const std::string resp = call(line, name, parent);
    std::vector<std::uint64_t> ids = job_ids(resp);
    if (!ok_response(resp) || ids.empty()) {
      tally_.fail(std::string(name) + ": " + resp.substr(0, 160));
      ids.clear();
    }
    return ids;
  }

  /// wait + result for one job; the payload, or empty on failure.
  std::string fetch(std::uint64_t job, std::int64_t parent) {
    const std::string id = std::to_string(job);
    const std::string waited =
        call("{\"op\":\"wait\",\"job\":" + id + ",\"timeout_s\":" +
                 std::to_string(static_cast<int>(kWaitTimeoutS)) + "}",
             "protocol.wait", parent, job);
    if (waited.find("\"done\":true") == std::string::npos) {
      tally_.fail("wait: " + waited.substr(0, 160));
      return {};
    }
    const std::string result = call("{\"op\":\"result\",\"job\":" + id + "}",
                                    "protocol.result", parent, job);
    const std::string_view payload = payload_of(result);
    if (!ok_response(result) || payload.empty()) {
      tally_.fail("result: " + result.substr(0, 160));
      return {};
    }
    return std::string(payload);
  }

  /// Parsed `stats` response (small; parsing it is fine).
  mobitherm::util::json::Value stats() {
    return mobitherm::util::json::Value::parse(
        conn_.request("{\"op\":\"stats\"}"));
  }

  std::size_t ops() const { return ops_; }

 private:
  std::string call(const std::string& line, const char* name,
                   std::int64_t parent, std::uint64_t request = 0) {
    ScopedSpan span(spans_, name, parent, request);
    ++tally_.attempted;
    ++ops_;
    return conn_.request(line);
  }

  Conn& conn_;
  Tally& tally_;
  SpanLog& spans_;
  std::size_t ops_ = 0;
};

/// Per-workload samples a socket loop produces.
struct LoopResult {
  std::vector<double> p50_ms;      // plain submit -> result / per op
  std::vector<double> fan_ms;      // wide submit -> all 8 lane results
  std::vector<double> verdict_ms;  // compare -> verdict
  double sim_s = 0.0;              // simulated seconds delivered
  double wall_s = 0.0;             // timed phase
  std::size_t ops = 0;             // protocol ops completed
  std::size_t submit_ops = 0;      // of which submit or compare lines
  Digest digest;                   // serve_cold payloads, arrival order
  std::string first_cycle;         // `digest` after the first cycle
};

/// serve_cold: closed loop over never-seen requests. Each cycle is 9
/// plain submits (3 per family), one 8-lane fan and one compare. Every fan
/// is Nexus Paper.io: fans of the three families differ in speed by up to
/// 40%, and with a few fans a server the family mix would move the median.
inline void run_cold(BlockingClient& client, ColdKeyGen& gen, double seconds,
                     SpanLog& spans, LoopResult& out) {
  const double start = now_s();
  const double end = start + seconds;
  const std::size_t ops_before = client.ops();
  for (std::size_t cycle = 0; now_s() < end; ++cycle) {
    for (int i = 0; i < 9 && now_s() < end; ++i) {
      const SimRequest r = gen.plain(kFamilies[static_cast<std::size_t>(i) % 3]);
      const double t0 = now_s();
      ScopedSpan root(spans, "cold.plain", -1, r.seed);
      const auto ids = client.admit(submit_line(r), "protocol.submit",
                                    root.index());
      if (ids.size() != 1) {
        continue;
      }
      const std::string payload = client.fetch(ids[0], root.index());
      if (payload.empty()) {
        continue;
      }
      out.p50_ms.push_back((now_s() - t0) * 1e3);
      out.sim_s += kRunSimSeconds;
      out.digest.fold(payload);
    }
    if (now_s() >= end) {
      break;
    }
    {
      const SimRequest r = gen.fan(Family::kNexus, kFanLanes);
      const double t0 = now_s();
      ScopedSpan root(spans, "cold.fan", -1, r.seed);
      const auto ids = client.admit(submit_line(r, kFanLanes),
                                    "protocol.submit", root.index());
      bool whole = ids.size() == static_cast<std::size_t>(kFanLanes);
      for (std::uint64_t id : ids) {
        const std::string payload = client.fetch(id, root.index());
        whole = whole && !payload.empty();
        if (!payload.empty()) {
          out.sim_s += kRunSimSeconds;
          out.digest.fold(payload);
        }
      }
      if (whole) {
        out.fan_ms.push_back((now_s() - t0) * 1e3);
      }
    }
    if (now_s() >= end) {
      break;
    }
    {
      const std::uint64_t base = gen.compare_base();
      const double t0 = now_s();
      ScopedSpan root(spans, "cold.verdict", -1, base);
      const auto ids =
          client.admit(compare_line(base), "protocol.compare", root.index());
      if (ids.size() == 1) {
        const std::string payload = client.fetch(ids[0], root.index());
        if (!payload.empty()) {
          out.verdict_ms.push_back((now_s() - t0) * 1e3);
          out.sim_s += verdict_sim_s(payload);
          out.digest.fold(payload);
        }
      }
    }
    if (cycle == 0) {
      out.first_cycle = out.digest.hex();
    }
  }
  out.wall_s = now_s() - start;
  out.ops = client.ops() - ops_before;
}

/// One cache-warm key of serve_warm: a plain submit, an 8-lane fan or a
/// compare, with the payloads its warm-up produced.
struct WarmKey {
  enum class Kind { kPlain, kFan, kCompare } kind = Kind::kPlain;
  std::string line;
  std::vector<std::string> payloads;  // one per lane (verdict: one)
  double sim_s = 0.0;
};

inline constexpr std::size_t kWarmKeys = 32;
/// Ops serve_warm keeps in flight on its one connection.
inline constexpr std::size_t kWarmWindow = 64;
/// Ops one serve_warm server is given. The job table is insert-only, so
/// server memory grows with every submit; a fixed count keeps peak RSS a
/// measure of bytes per op, not of how many ops a faster build fits in.
inline constexpr std::size_t kWarmOpsPerServer = 500000;

/// The 32-key set in Zipf rank order. The rank of each kind is fixed (not
/// seeded), so every seed sends the same mix: the compare at rank 7, the
/// fan at rank 15, plain submits elsewhere. Together with the compare's
/// 16 cached lanes and the 3 canary runs that is 58 cache entries, inside
/// the server's default 64, so no warm key is ever evicted.
inline std::vector<WarmKey> warm_key_set(ColdKeyGen& gen) {
  std::vector<WarmKey> keys(kWarmKeys);
  for (std::size_t r = 0; r < kWarmKeys; ++r) {
    WarmKey& k = keys[r];
    const Family f = kFamilies[r % 3];
    if (r == 7) {
      k.kind = WarmKey::Kind::kCompare;
      k.line = compare_line(gen.compare_base());
    } else if (r == 15) {
      k.kind = WarmKey::Kind::kFan;
      k.line = submit_line(gen.fan(f, kFanLanes), kFanLanes);
    } else {
      k.line = submit_line(gen.plain(f));
    }
  }
  return keys;
}

/// Runs every key once to completion and keeps its payloads. Units are
/// admitted in batches of at most 8 lanes so the 16-slot queue never
/// rejects, whether fans are packed into one slot or run lane by lane.
inline void warm_up(BlockingClient& client, std::vector<WarmKey>& keys,
                    Tally& tally) {
  std::size_t next = 0;
  while (next < keys.size()) {
    std::vector<std::pair<std::size_t, std::vector<std::uint64_t>>> batch;
    std::size_t lanes = 0;
    while (next < keys.size() && lanes < 8) {
      WarmKey& k = keys[next];
      lanes += k.kind == WarmKey::Kind::kFan ? kFanLanes : 1;
      batch.emplace_back(next, client.admit(k.line, "protocol.submit", -1));
      ++next;
    }
    for (auto& [index, ids] : batch) {
      WarmKey& k = keys[index];
      for (std::uint64_t id : ids) {
        std::string payload = client.fetch(id, -1);
        if (payload.empty()) {
          tally.error("warm-up key " + std::to_string(index) + " failed");
        }
        k.sim_s += k.kind == WarmKey::Kind::kCompare ? verdict_sim_s(payload)
                                                     : kRunSimSeconds;
        k.payloads.push_back(std::move(payload));
      }
    }
  }
}

/// serve_warm: one connection keeps kWarmWindow ops in flight. Submits
/// pick keys from the seeded Zipf(0.99) stream; each submit response
/// triggers a `result` fetch per lane, whose payload must equal the
/// warm-up copy byte for byte. New submits stop after `seconds` or once
/// kWarmOpsPerServer ops were issued; the fetches they triggered still
/// complete.
inline void run_warm(Conn& conn, const std::vector<WarmKey>& keys,
                     ZipfStream& zipf, double seconds, Tally& tally,
                     SpanLog& spans, LoopResult& out) {
  struct Inflight {
    bool submit = true;
    std::size_t key = 0;
    std::size_t lane = 0;
    std::uint64_t composite = 0;
    double sent = 0.0;
    std::int64_t span = -1;
  };
  struct Pending {
    std::uint64_t job = 0;
    std::size_t key = 0;
    std::size_t lane = 0;
    std::uint64_t composite = 0;
  };
  struct Composite {
    double start = 0.0;
    std::size_t remaining = 0;
    std::int64_t span = -1;
  };
  static constexpr const char* kRootNames[] = {"warm.plain", "warm.fan",
                                               "warm.verdict"};

  std::deque<Inflight> inflight;
  std::deque<Pending> pending;
  std::unordered_map<std::uint64_t, Composite> composites;
  std::uint64_t next_composite = 0;
  std::string send_buf;
  std::string& in = conn.buffer();
  conn.set_nonblocking(true);

  const double start = now_s();
  const double end = start + seconds;
  double last_progress = start;
  std::size_t issued = 0;
  for (;;) {
    const double now = now_s();
    const bool submitting = now < end && issued < kWarmOpsPerServer;
    for (; inflight.size() < kWarmWindow; ++issued) {
      if (!pending.empty()) {
        const Pending p = pending.front();
        pending.pop_front();
        send_buf += "{\"op\":\"result\",\"job\":";
        send_buf += std::to_string(p.job);
        send_buf += "}\n";
        inflight.push_back({false, p.key, p.lane, p.composite, now,
                            spans.begin("protocol.result",
                                        composites[p.composite].span,
                                        p.job)});
      } else if (submitting) {
        const std::size_t k = zipf.next();
        const WarmKey& key = keys[k];
        const std::uint64_t id = next_composite++;
        const std::int64_t root =
            spans.begin(kRootNames[static_cast<int>(key.kind)]);
        composites[id] = {now, key.payloads.size(), root};
        send_buf += key.line;
        send_buf += '\n';
        inflight.push_back({true, k, 0, id, now,
                            spans.begin(key.kind == WarmKey::Kind::kCompare
                                            ? "protocol.compare"
                                            : "protocol.submit",
                                        root)});
      } else {
        break;
      }
      ++tally.attempted;
    }
    if (inflight.empty()) {
      break;
    }
    while (!send_buf.empty()) {
      const ssize_t n = ::send(conn.fd(), send_buf.data(), send_buf.size(),
                               MSG_NOSIGNAL);
      if (n > 0) {
        send_buf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        break;
      }
      throw std::runtime_error("send: connection lost");
    }
    pollfd pfd{conn.fd(),
               static_cast<short>(POLLIN | (send_buf.empty() ? 0 : POLLOUT)),
               0};
    if (::poll(&pfd, 1, 1000) < 0 && errno != EINTR) {
      throw std::runtime_error("poll failed");
    }
    char chunk[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(conn.fd(), chunk, sizeof(chunk), 0);
      if (n > 0) {
        in.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        throw std::runtime_error("recv: server closed the connection");
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      if (errno != EINTR) {
        throw std::runtime_error("recv failed");
      }
    }
    std::size_t begin = 0;
    for (;;) {
      const std::size_t nl = in.find('\n', begin);
      if (nl == std::string::npos) {
        break;
      }
      const std::string_view line(in.data() + begin, nl - begin);
      begin = nl + 1;
      const double t = now_s();
      last_progress = t;
      const Inflight op = inflight.front();
      inflight.pop_front();
      out.p50_ms.push_back((t - op.sent) * 1e3);
      ++out.ops;
      const WarmKey& key = keys[op.key];
      Composite& comp = composites[op.composite];
      if (op.submit) {
        ++out.submit_ops;
        const std::vector<std::uint64_t> ids = job_ids(line);
        spans.end(op.span, ids.empty() ? 0 : ids.front());
        if (!ok_response(line) || ids.size() != key.payloads.size()) {
          tally.fail("submit: " + std::string(line.substr(0, 160)));
          spans.end(comp.span);
          composites.erase(op.composite);
          continue;
        }
        if (line.find("\"cached\":false") != std::string_view::npos) {
          tally.error("serve_warm submit missed the cache");
        }
        for (std::size_t lane = 0; lane < ids.size(); ++lane) {
          pending.push_back({ids[lane], op.key, lane, op.composite});
        }
        continue;
      }
      spans.end(op.span);
      const std::string_view payload = payload_of(line);
      if (!ok_response(line) || payload.empty()) {
        tally.fail("result: " + std::string(line.substr(0, 160)));
      } else if (payload != key.payloads[op.lane]) {
        tally.error("result payload differs from its warm-up copy");
      }
      if (--comp.remaining == 0) {
        out.sim_s += key.sim_s;
        spans.end(comp.span);
        composites.erase(op.composite);
      }
    }
    in.erase(0, begin);
    if (now_s() - last_progress > kWaitTimeoutS) {
      tally.fail("serve_warm: no response for " +
                 std::to_string(static_cast<int>(kWaitTimeoutS)) + " s");
      tally.failed += inflight.size();
      break;
    }
  }
  out.wall_s = now_s() - start;
  conn.set_nonblocking(false);
}

/// Rounds of time_warm_composites: each times the cached fan and the
/// cached compare once.
inline constexpr int kWarmCompositeRounds = 300;

/// serve_warm's fan and verdict latencies: the cached fan and compare one
/// at a time on the otherwise idle connection, each as its submit and then
/// every lane's `result` in one send, read by spinning, with the same
/// checks as run_warm. Inside run_warm's window their latency is mostly
/// queueing behind other ops, which moved twice as much as throughput
/// between runs.
inline void time_warm_composites(Conn& conn, const std::vector<WarmKey>& keys,
                                 Tally& tally, SpanLog& spans,
                                 LoopResult& out) {
  conn.set_nonblocking(true);
  for (int round = 0; round < kWarmCompositeRounds; ++round) {
    for (const WarmKey& key : keys) {
      if (key.kind == WarmKey::Kind::kPlain) {
        continue;
      }
      const bool fan = key.kind == WarmKey::Kind::kFan;
      const double t0 = now_s();
      ScopedSpan root(spans, fan ? "warm.fan" : "warm.verdict");
      ++tally.attempted;
      std::string line;
      {
        ScopedSpan span(spans, fan ? "protocol.submit" : "protocol.compare",
                        root.index());
        conn.send_all(key.line + "\n");
        line = conn.read_line_spinning();
      }
      const std::vector<std::uint64_t> ids = job_ids(line);
      if (!ok_response(line) || ids.size() != key.payloads.size()) {
        tally.fail("submit: " + line.substr(0, 160));
        continue;
      }
      if (line.find("\"cached\":false") != std::string::npos) {
        tally.error("serve_warm submit missed the cache");
      }
      std::string results;
      for (std::uint64_t id : ids) {
        results += "{\"op\":\"result\",\"job\":" + std::to_string(id) + "}\n";
      }
      bool whole = true;
      {
        ScopedSpan span(spans, "protocol.result", root.index());
        conn.send_all(results);
        for (std::size_t lane = 0; lane < ids.size(); ++lane) {
          ++tally.attempted;
          line = conn.read_line_spinning();
          const std::string_view payload = payload_of(line);
          if (!ok_response(line) || payload.empty()) {
            tally.fail("result: " + line.substr(0, 160));
            whole = false;
          } else if (payload != key.payloads[lane]) {
            tally.error("result payload differs from its warm-up copy");
          }
        }
      }
      if (whole) {
        (fan ? out.fan_ms : out.verdict_ms).push_back((now_s() - t0) * 1e3);
      }
    }
  }
  conn.set_nonblocking(false);
}

}  // namespace perfbench
