#include "svc/http.hpp"

#include "obs/event_log.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace bvc::svc {

namespace {

/// Bodies above this are rejected with 413 before being read into memory.
constexpr std::size_t kMaxBodyBytes = 8u << 20;
/// Cap on concurrently served connections (each costs one detached
/// thread). At the cap the accept loop waits for a slot; further clients
/// queue in the kernel listen backlog. Far above what the job API needs —
/// the cap exists so a flood of stalled clients exhausts this bound, not
/// the process's thread supply.
constexpr std::size_t kMaxConnections = 32;
/// Request head (request line + headers) cap; anything larger is hostile.
constexpr std::size_t kMaxHeadBytes = 64u << 10;

constexpr const char* kCrlf = "\r\n";

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

void set_socket_timeout(int fd) {
  timeval timeout{};
  timeout.tv_sec = 10;  // a stalled client cannot hold the accept loop
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
}

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent <= 0) {
      return false;
    }
    data += sent;
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

void write_response(int fd, const HttpResponse& response) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     reason_phrase(response.status) + kCrlf;
  head += "Content-Type: application/json";
  head += kCrlf;
  head += "Content-Length: " + std::to_string(response.body.size()) + kCrlf;
  head += "Connection: close";
  head += kCrlf;
  head += kCrlf;
  if (send_all(fd, head.data(), head.size())) {
    (void)send_all(fd, response.body.data(), response.body.size());
  }
}

/// Reads from `fd` until the blank line ending the head, then exactly
/// Content-Length body bytes. Returns false on timeout, overflow, or a
/// malformed head (the caller answers nothing and closes — the peer is
/// not speaking HTTP).
bool read_request(int fd, HttpRequest& request, int& error_status) {
  std::string buffer;
  std::size_t head_end = std::string::npos;
  char chunk[4096];
  while (head_end == std::string::npos) {
    if (buffer.size() > kMaxHeadBytes) {
      error_status = 413;
      return false;
    }
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) {
      error_status = 408;
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(got));
    head_end = buffer.find("\r\n\r\n");
  }

  const std::string head = buffer.substr(0, head_end);
  std::string body = buffer.substr(head_end + 4);

  // Request line: METHOD SP TARGET SP VERSION.
  const std::size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    error_status = 400;
    return false;
  }
  request.method = request_line.substr(0, sp1);
  // The query string stays in the target; the router splits it off (the
  // jobs endpoint takes ?offset/&limit pagination parameters).
  request.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);

  // Content-Length (case-insensitive header match, first wins).
  std::size_t content_length = 0;
  std::size_t cursor = line_end == std::string::npos ? head.size()
                                                     : line_end + 2;
  while (cursor < head.size()) {
    std::size_t eol = head.find("\r\n", cursor);
    if (eol == std::string::npos) {
      eol = head.size();
    }
    const std::string line = head.substr(cursor, eol - cursor);
    cursor = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    std::string name = line.substr(0, colon);
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (name != "content-length") {
      continue;
    }
    const std::string value = line.substr(colon + 1);
    content_length = static_cast<std::size_t>(
        std::strtoull(value.c_str(), nullptr, 10));
    break;
  }
  if (content_length > kMaxBodyBytes) {
    error_status = 413;
    return false;
  }

  while (body.size() < content_length) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) {
      error_status = 408;
      return false;
    }
    body.append(chunk, static_cast<std::size_t>(got));
  }
  body.resize(content_length);
  request.body = std::move(body);
  return true;
}

}  // namespace

HttpServer::HttpServer(HttpHandler handler) : handler_(std::move(handler)) {}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    std::perror("bvcd: socket");
    return false;
  }
  const int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0) {
    std::perror("bvcd: bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 16) != 0) {
    std::perror("bvcd: listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t length = sizeof(address);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                    &length) == 0) {
    port_ = ntohs(address.sin_port);
  }
  accept_thread_ = std::thread([this] { serve(); });
  return true;
}

void HttpServer::serve() {
  // Local copy: stop() overwrites listen_fd_ (after joining this thread);
  // serve() must never re-read the member while shutting down.
  const int listen_fd = listen_fd_;
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listen socket shut down by stop()
    }
    spawn_connection(fd);
  }
}

void HttpServer::spawn_connection(int fd) {
  {
    std::unique_lock<std::mutex> lock(connection_mutex_);
    connection_cv_.wait(lock, [this] {
      return active_connections_ < kMaxConnections || stopping_;
    });
    if (stopping_) {
      ::close(fd);
      return;
    }
    ++active_connections_;
  }
  try {
    std::thread([this, fd] {
      handle_connection(fd);
      ::close(fd);
      // notify under the lock: once stop() (blocked on this count inside
      // a wait that holds the mutex) observes zero and reacquires, this
      // thread has released the lock and never touches `this` again — so
      // the server object may be destroyed immediately after the drain.
      const std::lock_guard<std::mutex> lock(connection_mutex_);
      --active_connections_;
      connection_cv_.notify_all();
    }).detach();
  } catch (const std::system_error& e) {
    // Out of threads: serve this one connection inline instead of
    // dropping it. The accept loop stalls for its duration — acceptable
    // in an rlimit-starved corner the cap normally prevents.
    obs::log_event("svc", "connection thread spawn failed; serving inline",
                   {{"error", e.what()}});
    handle_connection(fd);
    ::close(fd);
    const std::lock_guard<std::mutex> lock(connection_mutex_);
    --active_connections_;
    connection_cv_.notify_all();
  }
}

void HttpServer::handle_connection(int fd) {
  set_socket_timeout(fd);
  HttpRequest request;
  int error_status = 400;
  if (!read_request(fd, request, error_status)) {
    HttpResponse error;
    error.status = error_status;
    error.body = "{\"error\":\"malformed request\"}";
    write_response(fd, error);
    return;
  }
  HttpResponse response;
  try {
    response = handler_(request);
  } catch (const std::exception& e) {
    response.status = 500;
    response.body = "{\"error\":\"internal\"}";
    obs::log_event("svc", "request handler threw", {{"error", e.what()}});
  }
  write_response(fd, response);
}

void HttpServer::stop() {
  {
    // Break the accept loop's wait-for-slot first, or joining it below
    // could deadlock against a full connection table.
    const std::lock_guard<std::mutex> lock(connection_mutex_);
    stopping_ = true;
    connection_cv_.notify_all();
  }
  if (listen_fd_ >= 0) {
    // shutdown() wakes the blocked accept(); close() alone may not. The
    // close is deferred until after the join: closing while serve() still
    // holds the fd number would let a concurrent open (e.g. a cache disk
    // spill) reuse it, handing accept() an unrelated descriptor.
    (void)::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  {
    // Drain: connection threads are detached, so their liveness is this
    // count. Per-connection socket timeouts bound the wait.
    std::unique_lock<std::mutex> lock(connection_mutex_);
    connection_cv_.wait(lock, [this] { return active_connections_ == 0; });
  }
  if (listen_fd_ >= 0) {
    (void)::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::optional<HttpResponse> http_fetch(std::uint16_t port,
                                       const std::string& method,
                                       const std::string& target,
                                       const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return std::nullopt;
  }
  set_socket_timeout(fd);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
      0) {
    ::close(fd);
    return std::nullopt;
  }

  std::string head = method + " " + target + " HTTP/1.1" + kCrlf;
  head += "Host: 127.0.0.1";
  head += kCrlf;
  head += "Content-Length: " + std::to_string(body.size()) + kCrlf;
  head += "Connection: close";
  head += kCrlf;
  head += kCrlf;
  if (!send_all(fd, head.data(), head.size()) ||
      !send_all(fd, body.data(), body.size())) {
    ::close(fd);
    return std::nullopt;
  }

  // Read to EOF (the server closes after one response), then split.
  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0) {
      ::close(fd);
      return std::nullopt;
    }
    if (got == 0) {
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(got));
    if (buffer.size() > kMaxBodyBytes + kMaxHeadBytes) {
      ::close(fd);
      return std::nullopt;
    }
  }
  ::close(fd);

  const std::size_t head_end = buffer.find("\r\n\r\n");
  if (head_end == std::string::npos ||
      buffer.rfind("HTTP/1.1 ", 0) != 0) {
    return std::nullopt;
  }
  HttpResponse response;
  response.status = std::atoi(buffer.c_str() + 9);
  response.body = buffer.substr(head_end + 4);
  return response;
}

}  // namespace bvc::svc
