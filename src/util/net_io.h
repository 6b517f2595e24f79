// Low-level socket I/O shared by every TCP surface in the tree (the obs
// HTTP endpoint and the cluster coordinator/worker protocol).
//
// The kernel gives send()/recv() three sharp edges that every caller used
// to re-handle ad hoc: short writes (send() may take fewer bytes than
// asked), EINTR (any blocking call can be interrupted by a signal and must
// be retried, not treated as failure), and SIGPIPE (writing to a
// half-closed socket kills the process unless suppressed).  These helpers
// fold all three into boring return values so protocol code above them can
// reason in whole messages:
//
//   send_all   loops until every byte is accepted, MSG_NOSIGNAL, EINTR-
//              retried; false only on a real error or peer close.
//   recv_some  one read, EINTR-retried: >0 bytes, 0 orderly close, -1 error.
//   poll_in    readability wait with a millisecond timeout, EINTR-retried.
//
// Connection establishment helpers keep the same spirit: tcp_listen binds
// and listens on loopback (port 0 = kernel-assigned; the returned port is
// how tests avoid collisions), tcp_connect does a bounded-time connect via
// the nonblocking + poll idiom so a dead host costs a timeout, not a hang.
// Both create close-on-exec sockets, so a child the caller spawns (the
// coordinator's per-attempt local workers) never holds another
// connection open.  ScopedFd is the RAII guard that makes every early
// return leak-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace entrace::util {

// Move-only owner of a file descriptor; closes on destruction.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { reset(); }

  ScopedFd(ScopedFd&& other) noexcept : fd_(other.release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

// Write all `len` bytes: partial writes are continued, EINTR retried,
// SIGPIPE suppressed (MSG_NOSIGNAL).  False when the peer closed or a hard
// error ended the stream early.
bool send_all(int fd, const void* data, std::size_t len);

// One recv, retried on EINTR: >0 = bytes read, 0 = orderly peer close,
// -1 = error (errno preserved).
long recv_some(int fd, void* buf, std::size_t len);

// Wait up to `timeout_ms` for fd to become readable (or to error/hang up,
// which also reads as "ready" so the caller's recv can observe it).
// 1 = ready, 0 = timeout, -1 = poll error.  EINTR is retried with the
// remaining budget.
int poll_in(int fd, int timeout_ms);

// Bind + listen on 127.0.0.1:port (0 = ephemeral).  On success returns the
// listening fd and stores the actual port in *bound_port; on failure
// returns an invalid fd and describes why in *error.
ScopedFd tcp_listen(std::uint16_t port, std::uint16_t* bound_port, std::string* error,
                    int backlog = 16);

// Bounded-time connect to host:port (host is a dotted IPv4 literal or
// "localhost").  Returns an invalid fd with *error set on resolution
// failure, refusal, or timeout; ECONNREFUSED is reported verbatim in
// *error so callers can classify it.
ScopedFd tcp_connect(const std::string& host, std::uint16_t port, double timeout_seconds,
                     std::string* error);

}  // namespace entrace::util
