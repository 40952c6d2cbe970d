// Loopback HTTP/1.1 server + client for the bvcd job API.
//
// Scope: exactly what an on-host solve daemon needs, nothing a proxy or
// the open internet needs. The server binds 127.0.0.1 only, speaks
// HTTP/1.1 with Content-Length framing (no chunked encoding, no
// keep-alive — one request per connection), and hands every parsed
// request to a single handler callback. Each accepted connection is
// served on its own (detached) thread, so a slow or stalled client —
// one that connects and then trickles or withholds its request — cannot
// stall /v1/healthz for everyone else; per-connection socket timeouts
// bound how long such a client can hold its thread. The number of
// in-flight connection threads is capped (kMaxConnections): at the cap
// the accept loop waits for a slot, and further clients queue in the
// kernel listen backlog. Handlers must still be fast (job submission
// spawns a worker and returns; status reads copy a snapshot) and are
// called concurrently — the JobRegistry behind them is already
// mutex-guarded. stop() drains: it stops accepting, then waits for every
// in-flight connection thread to finish before returning.
//
// The client half (http_fetch) is the same framing in reverse, used by
// bvc-cli and the service tests.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

namespace bvc::svc {

struct HttpRequest {
  std::string method;  ///< "GET", "POST", "DELETE", ...
  std::string target;  ///< path and query, e.g. "/v1/jobs/j1?offset=3"
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string body;  ///< JSON, sent as application/json
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  explicit HttpServer(HttpHandler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port, readable
  /// via port() afterwards) and starts the accept thread. False on bind
  /// failure (port in use, no permission) with the reason on stderr.
  [[nodiscard]] bool start(std::uint16_t port);

  /// The bound port (valid after a successful start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stops accepting, joins the accept thread, waits for every in-flight
  /// connection thread to finish, then closes the listen socket.
  /// Idempotent; also run by the destructor.
  void stop();

 private:
  void serve();
  void handle_connection(int fd);
  void spawn_connection(int fd);

  HttpHandler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  /// Connection-thread accounting (see the file comment): the accept loop
  /// blocks while `active_connections_` is at the cap; stop() waits until
  /// it drains to zero. `stopping_` breaks both waits.
  bool stopping_ = false;
  std::size_t active_connections_ = 0;
  mutable std::mutex connection_mutex_;
  std::condition_variable connection_cv_;
};

/// One-shot HTTP exchange against 127.0.0.1:`port`. Returns nullopt on
/// connect/IO failure or an unparsable response. `body` is sent with
/// Content-Length framing for any method that carries one.
[[nodiscard]] std::optional<HttpResponse> http_fetch(
    std::uint16_t port, const std::string& method, const std::string& target,
    const std::string& body = "");

}  // namespace bvc::svc
