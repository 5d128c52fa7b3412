#include "src/net/server.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/service/protocol.h"
#include "src/util/timer.h"

namespace kosr::net {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

std::string ErrnoString(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

/// One completed query ready to be framed back onto its connection.
struct Completion {
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  uint8_t status = kStatusOk;
  std::string payload;
};

/// MPSC completion queue between the service's worker threads and the
/// event loop. Owns the wakeup eventfd so a worker callback that outlives
/// the server (drain deadline hit) still has a live fd to poke — the
/// callbacks hold shared_ptr copies, and Close() turns late pushes into
/// cheap drops.
class CompletionSink {
 public:
  CompletionSink() : wake_fd_(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    if (wake_fd_ < 0) throw std::runtime_error(ErrnoString("eventfd"));
  }
  ~CompletionSink() { ::close(wake_fd_); }

  CompletionSink(const CompletionSink&) = delete;
  CompletionSink& operator=(const CompletionSink&) = delete;

  int wake_fd() const { return wake_fd_; }

  void Push(Completion completion) {
    {
      MutexLock lock(mutex_);
      if (closed_) return;
      items_.push_back(std::move(completion));
    }
    Wake();
  }

  void Wake() {
    uint64_t one = 1;
    // Failure (full counter) still leaves the eventfd readable.
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }

  std::vector<Completion> Drain() {
    uint64_t counter;
    while (::read(wake_fd_, &counter, sizeof counter) > 0) {
    }
    std::vector<Completion> items;
    MutexLock lock(mutex_);
    items.swap(items_);
    return items;
  }

  void Close() {
    MutexLock lock(mutex_);
    closed_ = true;
    items_.clear();
  }

 private:
  int wake_fd_;
  Mutex mutex_;
  bool closed_ KOSR_GUARDED_BY(mutex_) = false;
  std::vector<Completion> items_ KOSR_GUARDED_BY(mutex_);
};

/// Per-connection session state; owned and touched only by the loop thread.
struct NetServer::Connection {
  int fd = -1;
  uint64_t id = 0;
  FrameBuffer in;
  /// Unsent response bytes; [out_off, out.size()) is pending.
  std::string out;
  size_t out_off = 0;
  /// Query frames handed to the worker pool, not yet answered.
  uint32_t in_flight = 0;
  /// Last epoll interest mask actually installed.
  uint32_t epoll_mask = 0;
  /// No more frames will be read (QUIT, framing violation, or drain).
  bool stop_reading = false;
  /// Close once the write buffer flushes and in_flight hits zero.
  bool close_after_flush = false;

  explicit Connection(uint32_t max_frame) : in(max_frame) {}
};

NetServer::NetServer(service::KosrService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

NetServer::~NetServer() { Shutdown(); }

void NetServer::Start() {
  {
    MutexLock lock(lifecycle_mutex_);
    if (started_) return;
    started_ = true;
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* result = nullptr;
  const std::string port_str = std::to_string(options_.port);
  int rc = getaddrinfo(options_.host.c_str(), port_str.c_str(), &hints,
                       &result);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve listen address " +
                             options_.host + ": " + gai_strerror(rc));
  }
  listen_fd_ = socket(result->ai_family,
                      result->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                      result->ai_protocol);
  if (listen_fd_ < 0) {
    freeaddrinfo(result);
    throw std::runtime_error(ErrnoString("socket"));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (bind(listen_fd_, result->ai_addr, result->ai_addrlen) != 0 ||
      listen(listen_fd_, 128) != 0) {
    std::string error = ErrnoString("bind/listen");
    freeaddrinfo(result);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(error + " on " + options_.host + ":" + port_str);
  }
  freeaddrinfo(result);
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(ErrnoString("epoll_create1"));
  }
  sink_ = std::make_shared<CompletionSink>();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = sink_->wake_fd();
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, sink_->wake_fd(), &ev);

  service_.AttachNetGauges([this] { return gauges(); });
  loop_ = std::thread(&NetServer::LoopThread, this);
}

void NetServer::Shutdown() {
  MutexLock lock(lifecycle_mutex_);
  if (!started_ || joined_) return;
  joined_ = true;
  // Detach the gauge provider before anything can free server state a
  // concurrent Metrics() call would read through it.
  service_.AttachNetGauges(nullptr);
  stop_.store(true, std::memory_order_release);
  sink_->Wake();
  loop_.join();
  sink_->Close();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

service::NetGauges NetServer::gauges() const {
  service::NetGauges g;
  g.enabled = true;
  g.connections_accepted = accepted_.load(kRelaxed);
  g.connections_open = open_.load(kRelaxed);
  g.frames_in = frames_in_.load(kRelaxed);
  g.frames_out = frames_out_.load(kRelaxed);
  g.bytes_in = bytes_in_.load(kRelaxed);
  g.bytes_out = bytes_out_.load(kRelaxed);
  g.partial_reads = partial_reads_.load(kRelaxed);
  g.rejected_frames = rejected_frames_.load(kRelaxed);
  g.bad_frames = bad_frames_.load(kRelaxed);
  g.in_flight_queries = in_flight_queries_.load(kRelaxed);
  return g;
}

void NetServer::LoopThread() {
  std::vector<epoll_event> events(64);
  WallTimer drain_clock;
  for (;;) {
    if (!draining_ && stop_.load(std::memory_order_acquire)) {
      StartDrain();
      drain_clock.Reset();
    }
    // Short timeout: the stop flag may be set without a wake reaching us
    // (signal delivered to another thread), and the drain deadline needs
    // polling anyway.
    int n = epoll_wait(epoll_fd_, events.data(),
                       static_cast<int>(events.size()), 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself is broken; teardown below closes sessions
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        AcceptNew();
        continue;
      }
      if (sink_ && fd == sink_->wake_fd()) continue;  // drained below
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Connection* conn = it->second.get();
      if (ev & (EPOLLHUP | EPOLLERR)) {
        // Flush what we can (the peer may have half-closed); a dead
        // socket fails the write and closes below either way.
        if (!TryWrite(*conn)) continue;
        if (conn->out_off == conn->out.size() && conn->in_flight == 0) {
          CloseConn(fd);
          continue;
        }
      }
      if ((ev & EPOLLIN) && !HandleReadable(*conn, 16)) continue;
      if (ev & EPOLLOUT) TryWrite(*conn);
    }
    DrainCompletions();
    if (draining_) {
      if (conns_.empty() && in_flight_queries_.load(kRelaxed) == 0) break;
      if (drain_clock.ElapsedSeconds() > options_.drain_timeout_s) break;
    }
  }
  // Teardown: force-close whatever the drain (or an epoll failure) left.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) CloseConn(fd);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void NetServer::AcceptNew() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or transient (EMFILE/ECONNABORTED): retry later
    }
    accepted_.fetch_add(1, kRelaxed);
    if (draining_ || conns_.size() >= options_.max_connections) {
      ::close(fd);  // deterministic EOF instead of an unbounded session
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // The write-buffer cap only sees bytes the kernel refused. Left to
    // autotuning, the kernel send buffer of a peer that stops reading grows
    // to tcp_wmem's maximum (4 MB by default) and absorbs that much before
    // any send comes up short; sized to the cap, it bounds the unsent
    // bytes of a connection to about twice the cap, kernel and server
    // together.
    int sndbuf = static_cast<int>(std::min<size_t>(
        options_.max_write_buffer_bytes, std::numeric_limits<int>::max()));
    setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);
    auto conn = std::make_unique<Connection>(options_.max_frame_bytes);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conn->epoll_mask = EPOLLIN;
    conn_by_id_[conn->id] = fd;
    conns_.emplace(fd, std::move(conn));
    open_.fetch_add(1, kRelaxed);
  }
}

bool NetServer::HandleReadable(Connection& conn, int max_passes) {
  if (conn.stop_reading) return true;
  char buf[65536];
  for (int pass = 0; pass < max_passes; ++pass) {
    ssize_t r = recv(conn.fd, buf, sizeof buf, 0);
    if (r > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(r), kRelaxed);
      conn.in.Append(buf, static_cast<size_t>(r));
      if (!ProcessFrames(conn)) return false;
      if (conn.stop_reading) break;
      if (static_cast<size_t>(r) < sizeof buf) break;  // kernel buffer drained
      continue;
    }
    if (r == 0) {  // peer closed; everything parsed was already handled
      CloseConn(conn.fd);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn.fd);
    return false;
  }
  if (conn.in.HasPartial()) partial_reads_.fetch_add(1, kRelaxed);
  return true;
}

bool NetServer::ProcessFrames(Connection& conn) {
  ParsedFrame frame;
  std::string error;
  while (!conn.stop_reading) {
    FrameBuffer::PopResult res = conn.in.Pop(&frame, &error);
    if (res == FrameBuffer::PopResult::kNeedMore) break;
    if (res == FrameBuffer::PopResult::kBad) {
      bad_frames_.fetch_add(1, kRelaxed);
      conn.stop_reading = true;
      conn.close_after_flush = true;
      if (!SendFrame(conn, frame.request_id, kStatusBadFrame, error)) {
        return false;
      }
      SetEpollMask(conn);
      break;
    }
    frames_in_.fetch_add(1, kRelaxed);
    if (!HandleFrame(conn, frame)) return false;
  }
  return true;
}

bool NetServer::HandleFrame(Connection& conn, const ParsedFrame& frame) {
  if (frame.code != kVerbLine) {
    return SendFrame(conn, frame.request_id, kStatusBadRequest,
                     "unknown verb " + std::to_string(frame.code));
  }
  const std::string& line = frame.payload;
  const size_t first = line.find_first_not_of(" \t");
  const bool is_query =
      first != std::string::npos && line.compare(first, 5, "QUERY") == 0 &&
      (first + 5 == line.size() || line[first + 5] == ' ' ||
       line[first + 5] == '\t');
  if (!is_query) {
    // Inline on the loop thread: updates stay ordered per connection (and
    // across connections in arrival order), which is what makes update-ack
    // versions monotone on a connection.
    std::string response = service::HandleRequestLine(service_, line);
    const bool quit = response == "OK BYE";
    if (!SendFrame(conn, frame.request_id, kStatusOk, response)) return false;
    if (quit) {
      conn.stop_reading = true;
      conn.close_after_flush = true;
      SetEpollMask(conn);
      const int fd = conn.fd;
      CloseIfIdle(conn);  // may free conn; only the saved fd is safe after
      return conns_.count(fd) != 0;
    }
    return true;
  }
  if (conn.in_flight >= options_.max_pipeline) {
    rejected_frames_.fetch_add(1, kRelaxed);
    return SendFrame(conn, frame.request_id, kStatusRejected,
                     "pipeline full");
  }
  service::ServiceRequest request;
  std::string parse_error;
  if (!service::ParseQueryLine(line, &request, &parse_error)) {
    return SendFrame(conn, frame.request_id, kStatusOk, parse_error);
  }
  conn.in_flight++;
  in_flight_queries_.fetch_add(1, kRelaxed);
  // The callback runs on a worker thread: it may touch only the sink (kept
  // alive by the shared_ptr even past server teardown) and the service
  // (alive by contract) — never the server or the connection.
  std::shared_ptr<CompletionSink> sink = sink_;
  service::KosrService& service = service_;
  const uint64_t conn_id = conn.id;
  const uint64_t request_id = frame.request_id;
  service_.SubmitAsync(
      request, [sink, &service, conn_id,
                request_id](service::ServiceResponse response) {
        Completion completion;
        completion.conn_id = conn_id;
        completion.request_id = request_id;
        switch (response.status) {
          case service::ResponseStatus::kRejected:
            completion.status = kStatusRejected;
            completion.payload = response.error;
            break;
          case service::ResponseStatus::kShutdown:
            completion.status = kStatusRejected;
            completion.payload = "shutting down";
            break;
          default:
            completion.status = kStatusOk;
            completion.payload = FormatQueryResponse(service, response);
        }
        sink->Push(std::move(completion));
      });
  return true;
}

bool NetServer::SendFrame(Connection& conn, uint64_t request_id,
                          uint8_t status, std::string_view payload) {
  AppendFrame(conn.out, request_id, status, payload);
  frames_out_.fetch_add(1, kRelaxed);
  return TryWrite(conn);
}

bool NetServer::TryWrite(Connection& conn) {
  while (conn.out_off < conn.out.size()) {
    ssize_t w = send(conn.fd, conn.out.data() + conn.out_off,
                     conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (w > 0) {
      bytes_out_.fetch_add(static_cast<uint64_t>(w), kRelaxed);
      conn.out_off += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w < 0 && errno == EINTR) continue;
    CloseConn(conn.fd);  // EPIPE/ECONNRESET/...: the peer is gone
    return false;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
    if (conn.epoll_mask & EPOLLOUT) {
      conn.epoll_mask &= ~static_cast<uint32_t>(EPOLLOUT);
      SetEpollMask(conn);
    }
    if (conn.close_after_flush && conn.in_flight == 0) {
      CloseConn(conn.fd);
      return false;
    }
    return true;
  }
  // Partial write: bound the buffer, then wait for EPOLLOUT.
  if (conn.out.size() - conn.out_off > options_.max_write_buffer_bytes) {
    CloseConn(conn.fd);
    return false;
  }
  if (conn.out_off > 65536 && conn.out_off >= conn.out.size() / 2) {
    conn.out.erase(0, conn.out_off);
    conn.out_off = 0;
  }
  if (!(conn.epoll_mask & EPOLLOUT)) {
    conn.epoll_mask |= EPOLLOUT;
    SetEpollMask(conn);
  }
  return true;
}

void NetServer::SetEpollMask(Connection& conn) {
  uint32_t mask = conn.epoll_mask;
  if (conn.stop_reading) mask &= ~static_cast<uint32_t>(EPOLLIN);
  else mask |= EPOLLIN;
  conn.epoll_mask = mask;
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = conn.fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void NetServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  conn_by_id_.erase(it->second->id);
  conns_.erase(it);
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  open_.fetch_sub(1, kRelaxed);
}

void NetServer::DrainCompletions() {
  if (!sink_) return;
  std::vector<Completion> items = sink_->Drain();
  for (Completion& completion : items) {
    in_flight_queries_.fetch_sub(1, kRelaxed);
    if (completion.status == kStatusRejected) {
      rejected_frames_.fetch_add(1, kRelaxed);
    }
    auto it = conn_by_id_.find(completion.conn_id);
    if (it == conn_by_id_.end()) continue;  // connection died mid-flight
    Connection& conn = *conns_.at(it->second);
    conn.in_flight--;
    // SendFrame's flush notices close_after_flush once the last in-flight
    // response lands (QUIT or drain), so no separate idle check is needed.
    SendFrame(conn, completion.request_id, completion.status,
              completion.payload);
  }
}

void NetServer::StartDrain() {
  draining_ = true;
  if (listen_fd_ >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Final read pass per connection: everything the kernel has already
  // accepted gets parsed and answered; after this no more reads.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Connection& conn = *it->second;
    if (!HandleReadable(conn, 1 << 20)) continue;  // unbounded: drain fully
    conn.stop_reading = true;
    conn.close_after_flush = true;
    SetEpollMask(conn);
    CloseIfIdle(conn);
  }
}

void NetServer::CloseIfIdle(Connection& conn) {
  if (conn.close_after_flush && conn.out_off == conn.out.size() &&
      conn.in_flight == 0) {
    CloseConn(conn.fd);
  }
}

}  // namespace kosr::net
