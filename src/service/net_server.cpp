#include "service/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/error.h"

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

  epoll_fd_ = util::UniqueFd(::epoll_create1(EPOLL_CLOEXEC));
  wake_fd_ = util::UniqueFd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!epoll_fd_ || !wake_fd_) {
    throw util::ConfigError(std::string("epoll/eventfd: ") +
                            std::strerror(errno));
  }
  for (const auto& [fd, what] : {std::pair{listen_fd_.get(), "listen"},
                                 std::pair{wake_fd_.get(), "wake"}}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
      throw util::ConfigError(std::string("epoll_ctl(") + what + "): " +
                              std::strerror(errno));
    }
  }
}

NetServer::~NetServer() {
  // Safe to claim the loop role here: run() has returned (the contract is
  // that the loop thread is joined before destruction), so this thread is
  // the only one that can touch connection state.
  util::RoleGuard guard(loop_role_);
  close_all();
}

NetServer::Counters NetServer::counters() const {
  Counters c;
  c.connections_accepted = accepted_.load(std::memory_order_relaxed);
  c.connections_closed = closed_.load(std::memory_order_relaxed);
  c.connections_refused = refused_.load(std::memory_order_relaxed);
  c.requests = requests_.load(std::memory_order_relaxed);
  c.oversized_lines = oversized_.load(std::memory_order_relaxed);
  c.backpressure_stalls = stalls_.load(std::memory_order_relaxed);
  c.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  c.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return c;
}

void NetServer::stop() {
  stop_requested_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  // Wake the epoll wait; if the loop is not running the token is simply
  // consumed on the next run() entry.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
}

// LOCKCHECK: event-loop
void NetServer::run() {
  util::RoleGuard guard(loop_role_);
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_requested_.load(std::memory_order_acquire) &&
         !server_.shutdown_requested()) {
    const int n = ::epoll_wait(epoll_fd_.get(), events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t mask = events[i].events;
      if (fd == wake_fd_.get()) {
        std::uint64_t token = 0;
        // LOCKCHECK: ok(wake_fd_ is a nonblocking eventfd; read never stalls)
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_.get(), &token, sizeof(token));
        continue;
      }
      if (fd == listen_fd_.get()) {
        accept_ready();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection& conn = *it->second;
      if ((mask & (EPOLLHUP | EPOLLERR)) && !(mask & EPOLLIN)) {
        close_connection(fd);
        continue;
      }
      if (mask & EPOLLOUT) {
        if (!flush(conn)) continue;
        if (conn.peer_closed && conn.out.empty()) {
          close_connection(fd);
          continue;
        }
        update_interest(conn);
      }
      if ((mask & EPOLLIN) && !conn.reading_paused) {
        if (!read_ready(conn)) continue;
      }
      if (server_.shutdown_requested()) break;
    }
  }
  // Best-effort final drain so the `shutdown` acknowledgement (and any
  // responses queued behind it) reach their clients before teardown.
  for (auto& [fd, conn] : connections_) {
    (void)fd;
    flush(*conn);
  }
  close_all();
}

void NetServer::accept_ready() {
  while (true) {
    util::UniqueFd fd(::accept4(listen_fd_.get(), nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!fd) return;  // EAGAIN or transient error; epoll will re-arm
    if (connections_.size() >= config_.max_connections) {
      refused_.fetch_add(1, std::memory_order_relaxed);
      continue;  // dropping `fd` closes it
    }
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.send_buffer_bytes > 0) {
      ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &config_.send_buffer_bytes,
                   sizeof(config_.send_buffer_bytes));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd.get();
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd.get(), &ev) != 0) {
      // An unregistered connection would never see another event: it
      // cannot be served or closed later, so the fd is released now.
      refused_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto& conn = connections_[fd.get()];
    conn = std::make_unique<Connection>();
    conn->fd = std::move(fd);
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool NetServer::read_ready(Connection& conn) {
  char buf[64 * 1024];
  while (!conn.reading_paused) {
    // LOCKCHECK: ok(conn.fd is SOCK_NONBLOCK; recv returns EAGAIN, not stalls)
    const ssize_t n = ::recv(conn.fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      conn.in.append(buf, static_cast<std::size_t>(n));
      handle_buffered_lines(conn);
      if (server_.shutdown_requested()) break;
      // Backpressure check between reads, not just once per event: a
      // pipelining client can fill the write budget from a single chunk
      // of requests, and the stall must land before the next recv.
      if (conn.out.size() > config_.write_buffer_limit) {
        if (!flush(conn)) return false;
        if (conn.out.size() > config_.write_buffer_limit) {
          conn.reading_paused = true;
          stalls_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      continue;
    }
    if (n == 0) {
      // Half-close: the peer is done sending but may still be reading
      // responses. Handle what is buffered, then linger until drained.
      conn.peer_closed = true;
      handle_buffered_lines(conn);
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(conn.fd.get());
    return false;
  }
  if (!flush(conn)) return false;
  if (conn.peer_closed && conn.out.empty()) {
    close_connection(conn.fd.get());
    return false;
  }
  update_interest(conn);
  return true;
}

void NetServer::handle_buffered_lines(Connection& conn) {
  std::size_t start = 0;
  while (start < conn.in.size()) {
    const std::size_t nl = conn.in.find('\n', start);
    if (nl == std::string::npos) break;
    if (conn.discarding) {
      // Tail of an oversized line already answered; swallow it.
      conn.discarding = false;
      start = nl + 1;
      continue;
    }
    std::size_t end = nl;
    if (end > start && conn.in[end - 1] == '\r') --end;
    const std::string line = conn.in.substr(start, end - start);
    start = nl + 1;
    if (!SimServer::is_blank_line(line)) {
      requests_.fetch_add(1, std::memory_order_relaxed);
      if (line.size() > kMaxLineBytes) {
        oversized_.fetch_add(1, std::memory_order_relaxed);
      }
      conn.out += server_.handle_line(line);
      conn.out += '\n';
      if (server_.shutdown_requested()) {
        conn.in.clear();
        return;
      }
    }
  }
  conn.in.erase(0, start);
  if (conn.discarding) {
    conn.in.clear();
  } else if (conn.in.size() > kMaxLineBytes &&
             (conn.in.size() > kMaxLineBytes + 1 || conn.in.back() != '\r')) {
    // A partial line has already outgrown the cap, even if a trailing
    // '\r' turns out to end it: answer now with the exact oversized_line
    // response stdin mode produces (routed through handle_line so
    // fault-injection sequencing stays identical), then discard until the
    // line's eventual newline.
    oversized_.fetch_add(1, std::memory_order_relaxed);
    requests_.fetch_add(1, std::memory_order_relaxed);
    conn.out += server_.handle_line(std::string(kMaxLineBytes + 1, ' '));
    conn.out += '\n';
    conn.in.clear();
    conn.discarding = true;
  }
}

bool NetServer::flush(Connection& conn) {
  std::size_t written = 0;
  while (written < conn.out.size()) {
    // LOCKCHECK: ok(conn.fd is SOCK_NONBLOCK; send returns EAGAIN, not stalls)
    const ssize_t n = ::send(conn.fd.get(), conn.out.data() + written,
                             conn.out.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_connection(conn.fd.get());
    return false;
  }
  if (written > 0) {
    bytes_out_.fetch_add(static_cast<std::uint64_t>(written),
                         std::memory_order_relaxed);
    conn.out.erase(0, written);
  }
  return true;
}

void NetServer::update_interest(Connection& conn) {
  // Backpressure: park EPOLLIN while the unflushed responses exceed the
  // limit; resume at half the limit so a draining client does not flap
  // between states on every write.
  if (!conn.reading_paused && conn.out.size() > config_.write_buffer_limit) {
    conn.reading_paused = true;
    stalls_.fetch_add(1, std::memory_order_relaxed);
  } else if (conn.reading_paused &&
             conn.out.size() <= config_.write_buffer_limit / 2) {
    conn.reading_paused = false;
  }
  epoll_event ev{};
  ev.events = 0;
  if (!conn.reading_paused && !conn.peer_closed) ev.events |= EPOLLIN;
  if (!conn.out.empty()) ev.events |= EPOLLOUT;
  ev.data.fd = conn.fd.get();
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
}

void NetServer::close_connection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  connections_.erase(it);  // the Connection's owner closes the fd
  closed_.fetch_add(1, std::memory_order_relaxed);
}

void NetServer::close_all() {
  for (const auto& entry : connections_) {
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, entry.first, nullptr);
    closed_.fetch_add(1, std::memory_order_relaxed);
  }
  connections_.clear();  // each Connection's owner closes its fd
}

}  // namespace mobitherm::service
