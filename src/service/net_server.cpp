#include "service/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <string_view>
#include <system_error>
#include <utility>

#include "util/error.h"
#include "util/log.h"

namespace mobitherm::service {

NetServer::NetServer(SimServer& server, NetServerConfig config)
    : server_(server), config_(std::move(config)) {
  if (config_.port < 0 || config_.port > kMaxPort) {
    throw util::ConfigError("listen port " + std::to_string(config_.port) +
                            " is outside [0, " + std::to_string(kMaxPort) +
                            "]");
  }
  listen_fd_ = util::UniqueFd(
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!listen_fd_) {
    throw util::ConfigError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    throw util::ConfigError("invalid listen host: " + config_.host);
  }
  if (::bind(listen_fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_.get(), config_.backlog) != 0) {
    const std::string why = std::strerror(errno);
    throw util::ConfigError("bind/listen " + config_.host + ":" +
                            std::to_string(config_.port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_.get(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  wake_fd_ = util::UniqueFd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wake_fd_) {
    throw util::ConfigError(std::string("eventfd: ") + std::strerror(errno));
  }
}

NetServer::~NetServer() { end_connections(); }

NetServer::Counters NetServer::counters() const {
  Counters c;
  c.connections_accepted = accepted_.load(std::memory_order_relaxed);
  c.connections_closed = closed_.load(std::memory_order_relaxed);
  c.connections_refused = refused_.load(std::memory_order_relaxed);
  c.requests = requests_.load(std::memory_order_relaxed);
  c.oversized_lines = oversized_.load(std::memory_order_relaxed);
  c.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  c.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return c;
}

void NetServer::stop() {
  stop_requested_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  // Wakes run()'s poll; the token is never read, so a later run()
  // returns at once.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
  // Ends each connection thread's blocking recv or send. A descriptor
  // leaves the registry before it closes, so none here has been reused.
  util::MutexLock lock(mutex_);
  for (const int fd : live_) ::shutdown(fd, SHUT_RDWR);
}

void NetServer::run() {
  pollfd fds[2] = {{listen_fd_.get(), POLLIN, 0}, {wake_fd_.get(), POLLIN, 0}};
  while (!stop_requested_.load(std::memory_order_acquire) &&
         !server_.shutdown_requested()) {
    const int n = ::poll(fds, 2, -1);
    if (n < 0 && errno != EINTR) break;
    if (n > 0 && (fds[0].revents & POLLIN)) accept_one();
  }
  end_connections();
}

void NetServer::end_connections() {
  stop();  // also reaches connections registered after an earlier stop()
  for (Peer& peer : peers_) peer.thread.join();
  peers_.clear();
}

void NetServer::accept_one() {
  util::UniqueFd fd(
      ::accept4(listen_fd_.get(), nullptr, nullptr, SOCK_CLOEXEC));
  if (!fd) return;  // EAGAIN or a peer that already gave up
  peers_.remove_if([](Peer& peer) {
    if (!peer.done.load(std::memory_order_acquire)) return false;
    peer.thread.join();
    return true;
  });
  if (peers_.size() >= config_.max_connections) {
    refused_.fetch_add(1, std::memory_order_relaxed);
    return;  // dropping `fd` closes it
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  {
    util::MutexLock lock(mutex_);
    live_.insert(fd.get());
  }
  Peer& peer = peers_.emplace_back();
  peer.fd = std::move(fd);
  try {
    peer.thread = std::thread([this, &peer] { serve_peer(peer); });
  } catch (const std::system_error&) {
    {
      util::MutexLock lock(mutex_);
      live_.erase(peer.fd.get());
    }
    refused_.fetch_add(1, std::memory_order_relaxed);
    peers_.pop_back();  // closes the descriptor, now out of the registry
    return;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
}

void NetServer::serve_peer(Peer& peer) {
  const int fd = peer.fd.get();
  try {
    LineSession session(server_);
    std::string out;
    char buf[16 * 1024];
    bool open = true;
    while (open) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      LineSession::Tally tally;
      if (n > 0) {
        bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                            std::memory_order_relaxed);
        tally = session.feed(
            std::string_view(buf, static_cast<std::size_t>(n)), out);
      } else {
        open = false;  // EOF (a half-close included) or a broken connection
        if (n == 0) tally = session.finish(out);
      }
      requests_.fetch_add(tally.lines, std::memory_order_relaxed);
      oversized_.fetch_add(tally.oversized, std::memory_order_relaxed);
      open = send_all(fd, out) && open && !server_.shutdown_requested();
      out.clear();
    }
  } catch (const std::exception& e) {
    // handle_line answers its own errors; this is memory running out
    // while buffering, which costs this connection only.
    MOBITHERM_WARN("NetServer: connection dropped: " << e.what());
  }
  // The `shutdown` op's acknowledgement is sent; end the other
  // connections and wake run().
  if (server_.shutdown_requested()) stop();
  {
    util::MutexLock lock(mutex_);
    live_.erase(fd);
  }
  closed_.fetch_add(1, std::memory_order_relaxed);
  peer.fd = util::UniqueFd();
  peer.done.store(true, std::memory_order_release);
}

bool NetServer::send_all(int fd, const std::string& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
    bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                         std::memory_order_relaxed);
  }
  return true;
}

}  // namespace mobitherm::service
