// Blocking socket front end for the NDJSON protocol.
//
// Promotes SimServer from a single stdin/stdout pipe to a real networked
// service: an acceptor gives each client connection on a loopback/LAN TCP
// socket its own thread, which speaks exactly the line-oriented protocol
// of server.h — one JSON request per line, one response line per request,
// responses in request order per connection. The stdin pipe remains the
// degenerate 1-connection case (SimServer::serve); both fronts share one
// SimServer and one framer (LineSession), so a request stream produces
// byte-identical responses over either transport.
//
// Connection lifecycle:
//   accept  -> run() polls the listen socket and the wake eventfd; each
//              accepted connection is registered and gets one thread
//              (past max_connections, or when the thread cannot start,
//              it is closed unanswered and counted as refused)
//   serve   -> the thread loops: blocking recv, frame (LineSession),
//              SimServer::handle_line per line, blocking send of the
//              chunk's responses. A `wait` blocks only this connection.
//   close   -> at peer EOF the last line, with or without its '\n', is
//              answered and sent; the connection leaves the registry,
//              then its descriptor closes.
//   stop    -> stop() and the `shutdown` op shut down every registered
//              socket, which ends its thread's blocking recv or send;
//              run() then joins every connection thread and returns.
//
// Backpressure: a client that pipelines requests faster than it reads
// responses fills its socket buffers, so its thread blocks in send and
// reads nothing more; TCP flow control pushes the stall back to that
// sender alone. The service queue keeps rejecting with `queue_full`
// independently; no framed response is dropped or reordered.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <set>
#include <string>
#include <thread>

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
  /// Connection threads at most; connections beyond it are closed
  /// immediately.
  std::size_t max_connections = 1024;
};

class NetServer {
 public:
  /// Binds and listens immediately (throws util::ConfigError on socket
  /// errors), but serves nothing until run(). `server` must outlive this
  /// object; it may be shared with a stdin front as long as only one
  /// front runs at a time.
  NetServer(SimServer& server, NetServerConfig config = {});
  /// Ends and joins any connection thread still running, as run() does
  /// before it returns.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound TCP port (resolved at construction, so an ephemeral-port
  /// server can be advertised before run() is entered).
  int port() const { return port_; }

  /// Accepts and serves until a `shutdown` request is handled or stop()
  /// is called, then returns once every connection thread has finished
  /// the request it was handling. Call from exactly one thread.
  void run();

  /// Thread-safe: make run() return, and shut down every live connection.
  void stop();

  /// Monotonic counters, readable from any thread while run() serves.
  struct Counters {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t connections_refused = 0;  // over the cap, or no thread
    std::uint64_t requests = 0;             // lines handled
    std::uint64_t oversized_lines = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
  };
  Counters counters() const;

 private:
  /// One connection thread, owned by run(). The thread closes `fd`
  /// once it has left the registry, and sets `done` last.
  struct Peer {
    util::UniqueFd fd;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_one();
  void serve_peer(Peer& peer);
  /// stop(), then join every connection thread.
  void end_connections();
  /// Sends all of `bytes`; false once the connection is broken or shut
  /// down.
  bool send_all(int fd, const std::string& bytes);

  SimServer& server_;
  NetServerConfig config_;
  // Created in the constructor and read-only until destruction (stop()
  // writes *to* wake_fd_, which is thread-safe on an eventfd).
  util::UniqueFd listen_fd_;
  util::UniqueFd wake_fd_;  // eventfd written by stop()
  int port_ = 0;
  std::atomic<bool> stop_requested_{false};

  /// The registry: the descriptor of every connection a thread serves.
  /// A leaf lock, never held across handle_line, recv or send.
  util::Mutex mutex_;
  std::set<int> live_ GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> oversized_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};

  // run()'s thread only; last, after every member its threads use.
  std::list<Peer> peers_;
};

}  // namespace mobitherm::service
