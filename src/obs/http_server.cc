#include "obs/http_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>

#include "util/net_io.h"

namespace entrace::obs {

namespace {

// Hard cap on what a client may send before we answer 400 and hang up: a
// request line plus headers for the endpoints served here fits in a few
// hundred bytes, so anything approaching the cap is garbage or abuse.
constexpr std::size_t kMaxRequestBytes = 8192;
// A connected client that never finishes its request line is cut off after
// this long so it cannot wedge a worker.
constexpr int kRequestReadTimeoutMs = 2000;
// Handler threads: one serves a slow endpoint while the other answers
// probes.
constexpr std::size_t kWorkers = 2;
// At most this many accepted connections may wait for a handler; beyond it
// the accept loop sheds load by closing.
constexpr std::size_t kMaxQueuedConnections = 64;

const char* status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    default:
      return "Internal Server Error";
  }
}

}  // namespace

HttpServer::HttpServer(std::uint16_t port, Handler handler) : handler_(std::move(handler)) {
  std::string error;
  util::ScopedFd fd = util::tcp_listen(port, &port_, &error);
  if (!fd.valid()) throw std::runtime_error("http: " + error);
  listen_fd_ = fd.release();
}

HttpServer::~HttpServer() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void HttpServer::start() {
  if (started_) return;
  started_ = true;
  stopping_.store(false, std::memory_order_release);
  for (std::size_t i = 0; i < kWorkers; ++i) {
    pool_.emplace_back([this] { worker_loop(); });
  }
  thread_ = std::thread([this] { serve_loop(); });
}

void HttpServer::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  queue_cv_.notify_all();
  for (std::thread& t : pool_) {
    if (t.joinable()) t.join();
  }
  pool_.clear();
  // Connections still queued were never answered; close them so the peers
  // see a hangup instead of a leak.
  std::lock_guard<std::mutex> lock(queue_mu_);
  for (const int fd : queue_) ::close(fd);
  queue_.clear();
  started_ = false;
}

void HttpServer::serve_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);  // 100 ms stop-poll granularity
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.size() >= kMaxQueuedConnections) {
        ::close(fd);  // shed load; the client sees a hangup and retries
        continue;
      }
      queue_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void HttpServer::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait_for(lock, std::chrono::milliseconds(100), [this] {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) {
        if (stopping_.load(std::memory_order_acquire)) return;
        continue;
      }
      fd = queue_.front();
      queue_.pop_front();
    }
    handle_connection(fd);
    ::close(fd);
  }
}

void HttpServer::handle_connection(int fd) {
  // Read until the request-line terminator, the size cap, the read
  // timeout, or a mid-request hangup — whichever comes first.  All of the
  // abnormal endings fall through to the 400 path below; none of them may
  // take the accept loop down (malformed-request tests pin this).
  std::string req;
  char buf[2048];
  bool overlong = false;
  while (req.find("\r\n\r\n") == std::string::npos && req.find('\n') == std::string::npos) {
    if (req.size() >= kMaxRequestBytes) {
      overlong = true;
      break;
    }
    if (util::poll_in(fd, kRequestReadTimeoutMs) != 1) break;
    const long n = util::recv_some(fd, buf, sizeof(buf));
    if (n <= 0) break;  // peer closed mid-request or hard error
    req.append(buf, static_cast<std::size_t>(n));
  }
  if (req.empty()) return;  // connect-and-close probe: nothing to answer

  HttpResponse resp;
  const std::size_t sp1 = req.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos : req.find(' ', sp1 + 1);
  if (overlong || sp1 == std::string::npos || sp2 == std::string::npos ||
      req.compare(0, sp1, "GET") != 0) {
    resp = HttpResponse{400, "text/plain; charset=utf-8", "bad request\n"};
  } else {
    std::string path = req.substr(sp1 + 1, sp2 - sp1 - 1);
    // Dispatch on the bare path: "GET /healthz?probe=1" must reach the
    // /healthz handler, not 404.  (Fragments never legitimately appear in
    // a request target, but a client that sends one gets the same mercy.)
    const std::size_t cut = path.find_first_of("?#");
    if (cut != std::string::npos) path.resize(cut);
    try {
      resp = handler_(path);
    } catch (const std::exception& e) {
      resp = HttpResponse{500, "text/plain; charset=utf-8", std::string(e.what()) + "\n"};
    }
  }

  std::string out = "HTTP/1.0 " + std::to_string(resp.status) + " " + status_text(resp.status) +
                    "\r\nContent-Type: " + resp.content_type +
                    "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += resp.body;
  // Partial writes and EINTR are handled inside; a client that hangs up
  // mid-response is its own problem.
  util::send_all(fd, out.data(), out.size());
}

}  // namespace entrace::obs
