#include "util/net_io.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace entrace::util {

void ScopedFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

bool send_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, p + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

long recv_some(int fd, void* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n < 0 && errno == EINTR) continue;
    return static_cast<long>(n);
  }
}

int poll_in(int fd, int timeout_ms) {
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready >= 0) return ready > 0 ? 1 : 0;
    if (errno != EINTR) return -1;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - clock::now()).count();
    if (left <= 0) return 0;
    timeout_ms = static_cast<int>(left);
  }
}

ScopedFd tcp_listen(std::uint16_t port, std::uint16_t* bound_port, std::string* error,
                    int backlog) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    if (error != nullptr) *error = std::string("socket() failed: ") + std::strerror(errno);
    return {};
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = "bind 127.0.0.1:" + std::to_string(port) + " failed: " + std::strerror(errno);
    }
    return {};
  }
  if (::listen(fd.get(), backlog) != 0) {
    if (error != nullptr) *error = std::string("listen() failed: ") + std::strerror(errno);
    return {};
  }
  if (bound_port != nullptr) {
    socklen_t len = sizeof(addr);
    ::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len);
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

ScopedFd tcp_connect(const std::string& host, std::uint16_t port, double timeout_seconds,
                     std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string literal = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, literal.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "cannot parse host '" + host + "' as an IPv4 address";
    return {};
  }

  ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    if (error != nullptr) *error = std::string("socket() failed: ") + std::strerror(errno);
    return {};
  }
  // Nonblocking connect + poll: a dead or unroutable endpoint costs
  // `timeout_seconds`, never an uninterruptible kernel default.
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);

  const int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    if (error != nullptr) {
      *error = "connect " + host + ":" + std::to_string(port) + ": " + std::strerror(errno);
    }
    return {};
  }
  if (rc != 0) {
    pollfd pfd{fd.get(), POLLOUT, 0};
    int timeout_ms = static_cast<int>(timeout_seconds * 1000.0);
    if (timeout_ms < 1) timeout_ms = 1;
    int ready;
    do {
      ready = ::poll(&pfd, 1, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready <= 0) {
      if (error != nullptr) {
        *error = "connect " + host + ":" + std::to_string(port) + ": timed out after " +
                 std::to_string(timeout_seconds) + "s";
      }
      return {};
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &soerr, &len);
    if (soerr != 0) {
      if (error != nullptr) {
        *error = "connect " + host + ":" + std::to_string(port) + ": " + std::strerror(soerr);
      }
      return {};
    }
  }
  ::fcntl(fd.get(), F_SETFL, flags);
  return fd;
}

}  // namespace entrace::util
