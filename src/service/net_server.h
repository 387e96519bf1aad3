// Non-blocking socket front end for the NDJSON protocol.
//
// Promotes SimServer from a single stdin/stdout pipe to a real networked
// service: one epoll-driven event loop accepts many concurrent client
// connections on a loopback/LAN TCP socket and speaks exactly the
// line-oriented protocol of server.h — one JSON request per line, one
// response line per request, responses in request order per connection.
// The stdin pipe remains the degenerate 1-connection case (SimServer::
// serve); both fronts share one SimServer and one framing rule, so a
// request stream produces byte-identical responses over either transport.
//
// Connection lifecycle:
//   accept  -> non-blocking fd, per-connection read/write buffers
//   read    -> bytes append to the read buffer; every complete line is
//              handled inline (a submit is a cache probe + queue push —
//              milliseconds of simulation never run on this thread) and
//              its response is appended to the write
//              buffer. A line exceeding kMaxLineBytes is answered with
//              the same oversized_line error as stdin mode and the
//              overflow is discarded up to the next newline, so the
//              connection survives hostile input without unbounded
//              buffering.
//   write   -> the write buffer drains opportunistically after handling
//              and on EPOLLOUT; responses are never dropped or reordered.
//   close   -> peer EOF processes remaining complete lines, drains the
//              write buffer, then closes (half-close friendly).
//
// Backpressure layering: this server adds *connection-level* backpressure
// on top of the service's queue-level reject-with-reason. When a
// connection's write buffer exceeds write_buffer_limit (a client that
// pipelines requests faster than it reads responses), the loop stops
// *reading* that connection — EPOLLIN is parked until the buffer drains
// below half the limit — so a slow consumer throttles itself through TCP
// flow control while every framed response stays intact. The service
// queue keeps rejecting with `queue_full` independently; the two layers
// never drop a response between them.
//
// Caveat: ops are handled inline on the event loop, so a blocking `wait`
// with a long timeout stalls *other* connections until it returns.
// Latency-sensitive clients should poll `status` and keep `wait`
// timeouts short; submit/status/result/stats are all non-blocking.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "service/server.h"
#include "util/sync.h"
#include "util/unique_fd.h"

namespace mobitherm::service {

/// Highest TCP port; NetServerConfig::port must lie in [0, kMaxPort].
inline constexpr int kMaxPort = 65535;

struct NetServerConfig {
  /// Listen address; the default binds loopback only.
  std::string host = "127.0.0.1";
  /// TCP port in [0, kMaxPort], else the constructor throws ConfigError;
  /// 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// listen(2) backlog.
  int backlog = 128;
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 1024;
  /// Connection-level backpressure threshold: once a connection's
  /// unflushed responses exceed this many bytes, the loop stops reading
  /// it until the buffer drains below half the limit.
  std::size_t write_buffer_limit = 1 << 20;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default
  /// (autotuned). Setting it caps how much the kernel buffers on top of
  /// write_buffer_limit — tests use a small value to make backpressure
  /// deterministic.
  int send_buffer_bytes = 0;
};

class NetServer {
 public:
  /// Binds and listens immediately (throws util::ConfigError on socket
  /// errors), but serves nothing until run(). `server` must outlive this
  /// object; it may be shared with a stdin front as long as only one
  /// front runs at a time.
  NetServer(SimServer& server, NetServerConfig config = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound TCP port (resolved at construction, so an ephemeral-port
  /// server can be advertised before run() is entered).
  int port() const { return port_; }

  /// Event loop: accept + serve until a `shutdown` request is handled or
  /// stop() is called. Call from exactly one thread.
  void run();

  /// Thread-safe: wake the loop and make run() return after the current
  /// event batch. Pending write buffers are flushed best-effort.
  void stop();

  /// Monotonic counters, readable from any thread while the loop runs.
  struct Counters {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t connections_refused = 0;  // over max_connections
    std::uint64_t requests = 0;             // lines handled
    std::uint64_t oversized_lines = 0;
    std::uint64_t backpressure_stalls = 0;  // reads parked on a full buffer
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
  };
  Counters counters() const;

 private:
  struct Connection {
    util::UniqueFd fd;
    std::string in;   // bytes read, not yet framed into lines
    std::string out;  // response bytes not yet written
    bool reading_paused = false;  // EPOLLIN parked (backpressure)
    bool discarding = false;      // inside an oversized line
    bool peer_closed = false;     // EOF seen; close once `out` drains
  };

  // Connection state is single-threaded by design: only the event-loop
  // thread (the one inside run()) may touch it. That affinity is a
  // compiler-checked capability, not a comment — run() claims loop_role_
  // with a RoleGuard, every helper REQUIRES it, and connections_ is
  // GUARDED_BY it, so a future "quick fix" that pokes a connection from
  // stop() or a worker thread fails the clang -Wthread-safety build.
  void accept_ready() REQUIRES(loop_role_);
  /// Returns false when the connection was closed.
  bool read_ready(Connection& conn) REQUIRES(loop_role_);
  bool flush(Connection& conn) REQUIRES(loop_role_);
  void handle_buffered_lines(Connection& conn) REQUIRES(loop_role_);
  void update_interest(Connection& conn) REQUIRES(loop_role_);
  void close_connection(int fd) REQUIRES(loop_role_);
  void close_all() REQUIRES(loop_role_);

  SimServer& server_;
  NetServerConfig config_;
  // The listen/epoll/wake fds are created in the constructor and closed by
  // their owners; between those they are read-only (stop() writes *to*
  // wake_fd_, which is thread-safe on an eventfd, but never reassigns it).
  util::UniqueFd listen_fd_;
  util::UniqueFd epoll_fd_;
  util::UniqueFd wake_fd_;  // eventfd written by stop()
  int port_ = 0;
  std::atomic<bool> stop_requested_{false};
  /// The event-loop thread's role; see util::ThreadRole.
  util::ThreadRole loop_role_;
  std::map<int, std::unique_ptr<Connection>> connections_
      GUARDED_BY(loop_role_);

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> oversized_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
};

}  // namespace mobitherm::service
