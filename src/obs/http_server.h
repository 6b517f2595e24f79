// Minimal embedded HTTP/1.0 server for daemon observability.
//
// Serves GET requests; each connection is read, answered, and closed
// (Connection: close), so there is no keep-alive state and no request
// pipelining to manage.  The request target is stripped of its ?query and
// #fragment before dispatch, so handlers match on the bare path —
// `GET /healthz?probe=1` reaches the "/healthz" handler, as probes expect.
// Handlers snapshot shared state under their own lock and return a
// complete body; nothing here retains a request between calls.  Scope is
// deliberately tiny (one scrape endpoint set, trusted network): no TLS, no
// chunked encoding, no request bodies.  This mirrors what in-process
// metric endpoints in collectors ship — enough for
// `curl http://host:port/metrics` and a Prometheus scrape loop.
//
// Concurrency: the accept thread queues each connection to a pool of two
// handler threads, so a liveness probe is answered while a slow endpoint
// (the daemon's multi-second /report fold next to /healthz) is still in
// flight instead of starving behind it.  Handlers must be safe to run
// concurrently with themselves.
//
// Lifecycle: the constructor binds + listens (throwing on failure, e.g.
// port in use), start() launches the accept loop (and workers), and
// stop()/destructor join them.  Port 0 binds an ephemeral port; port()
// reports the actual one, which is how tests run servers concurrently
// without port collisions.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace entrace::obs {

struct HttpResponse {
  int status = 200;  // 200, 404, 500
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpServer {
 public:
  // Called with the request path, query/fragment already stripped (e.g.
  // "/metrics").  Runs on a worker thread, possibly concurrently with
  // another request.
  using Handler = std::function<HttpResponse(const std::string& path)>;

  // Binds 127.0.0.1:port and listens; throws std::runtime_error on failure.
  HttpServer(std::uint16_t port, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  void start();
  void stop();

  // The bound port (resolves 0 to the kernel-assigned ephemeral port).
  std::uint16_t port() const { return port_; }

 private:
  void serve_loop();
  void worker_loop();
  void handle_connection(int fd);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  Handler handler_;
  std::thread thread_;
  std::vector<std::thread> pool_;
  // Accepted fds awaiting a worker.  Bounded: past kMaxQueuedConnections
  // the accept loop closes new connections instead of queueing them, so a
  // stalled handler cannot accumulate fds without limit.
  std::deque<int> queue_;
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  // Written by stop(), polled by the accept loop between 100 ms waits.
  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

}  // namespace entrace::obs
