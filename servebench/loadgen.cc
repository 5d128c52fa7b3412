// `servebench load`: the open-loop load generator, and `servebench stub`, the
// fixed-delay server its self-test runs against.
//
// The generator replays a plan over at most a handful of TCP connections
// from ONE thread. Each operation is due at a fixed offset from the start;
// its latency runs from that due time (not from when it was actually sent)
// to the arrival of its response frame, so a stall charges every request it
// delays. The loop never sleeps: it busy-polls the sockets with zero-timeout
// ppoll(2) calls, sends each operation once its due time has passed and
// timestamps each read as soon as recv(2) returns. On a virtual machine a
// thread that sleeps, even for a nanosecond-exact timeout, wakes only when
// the hypervisor runs its halted vCPU again, which at p99 is milliseconds
// late; a spinning thread keeps its vCPU running. (Waiting in
// FramedClient::Poll would also round sub-millisecond waits down to poll(0);
// sleeping until the next send before draining replies timestamps each
// reply up to one inter-arrival period late.) The generator therefore takes
// one core for the whole plan; its reported busy share counts only the time
// spent sending and receiving.
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <netinet/in.h>
#include <netinet/tcp.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>

#include "servebench/common.h"
#include "src/net/client.h"
#include "src/net/frame.h"

namespace servebench {
namespace {

/// How long the generator waits for responses after its last send; a
/// request still unanswered then counts as failed.
constexpr int64_t kDrainNs = 30'000'000'000;

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw std::runtime_error("fcntl O_NONBLOCK failed");
  }
}

/// Writes as much of `out` (from `*offset`) as the socket takes. Returns
/// false when the peer is gone.
bool FlushSome(int fd, const std::string& out, size_t* offset) {
  while (*offset < out.size()) {
    ssize_t w = send(fd, out.data() + *offset, out.size() - *offset,
                     MSG_NOSIGNAL);
    if (w > 0) {
      *offset += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  return true;
}

/// Extracts the "costs=..." field of an "OK ROUTES" response; false when
/// the response is not a complete route answer.
bool ExtractCosts(const std::string& payload, std::string* costs) {
  if (payload.rfind("OK ROUTES ", 0) != 0) return false;
  if (payload.find(" truncated=1") != std::string::npos) return false;
  const size_t at = payload.find(" costs=");
  if (at == std::string::npos) return false;
  const size_t begin = at + 7;
  const size_t end = payload.find(' ', begin);
  *costs = payload.substr(begin, end == std::string::npos ? std::string::npos
                                                          : end - begin);
  return true;
}

struct Conn {
  std::unique_ptr<kosr::net::FramedClient> client;
  kosr::net::FrameBuffer in;
  std::string out;
  size_t out_offset = 0;
};

}  // namespace

int CmdLoad(const Flags& flags) {
  const Plan plan = ReadPlan(Required(flags, "plan"));
  const auto port = static_cast<uint16_t>(flags.GetInt("port"));
  const bool consistent = flags.GetIntOr("consistent", 0) != 0;
  const auto pool_size = static_cast<size_t>(flags.GetIntOr("pool-size", 0));
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  std::vector<Conn> conns(plan.conns);
  std::vector<pollfd> pfds(plan.conns);
  for (int c = 0; c < plan.conns; ++c) {
    conns[c].client = std::make_unique<kosr::net::FramedClient>("127.0.0.1", port);
    SetNonBlocking(conns[c].client->fd());
    pfds[c].fd = conns[c].client->fd();
  }

  const size_t n = plan.ops.size();
  std::vector<int64_t> sent(n, 0), recv_at(n, 0);
  std::vector<char> ok(n, 0);
  std::vector<std::string> costs_by_idx(pool_size);
  std::vector<std::string> acked;
  size_t mismatches = 0;
  size_t received = 0, next = 0, backlog_at_last_send = 0;
  bool peer_lost = false;

  auto on_frame = [&](const kosr::net::ParsedFrame& frame, int64_t now) {
    if (frame.request_id == 0 || frame.request_id > n) return;
    const size_t i = frame.request_id - 1;
    if (recv_at[i] != 0) return;
    recv_at[i] = now;
    ++received;
    const PlanOp& op = plan.ops[i];
    if (frame.code != kosr::net::kStatusOk) return;
    const std::string& p = frame.payload;
    switch (op.kind) {
      case 'Q': {
        std::string costs;
        if (!ExtractCosts(p, &costs)) return;
        if (op.idx >= 0 && static_cast<size_t>(op.idx) < pool_size) {
          std::string& seen = costs_by_idx[op.idx];
          if (seen.empty()) {
            seen = costs.empty() ? "-" : costs;
          } else if (consistent && seen != (costs.empty() ? "-" : costs)) {
            ++mismatches;
            return;
          }
        }
        ok[i] = 1;
        return;
      }
      case 'U':
        if (p.rfind("OK UPDATED", 0) == 0) {
          ok[i] = 1;
          acked.push_back(op.line);
        }
        return;
      case 'C':
        ok[i] = p.rfind("OK CHECKPOINT", 0) == 0;
        return;
      case 'P':
        ok[i] = p == "OK PONG";
        return;
      default:
        return;
    }
  };

  const int64_t t0 = NowNs() + 20000000;  // connections settle first
  const int64_t last_due = t0 + (n ? plan.ops.back().due_us * 1000 : 0);
  const int64_t deadline = last_due + kDrainNs;
  // Time spent sending and receiving, as opposed to polling idle sockets.
  int64_t busy_ns = 0;
  char buf[65536];
  while (received < n && !peer_lost) {
    const int64_t now = NowNs();
    bool worked = false;
    while (next < n && t0 + plan.ops[next].due_us * 1000 <= now) {
      const PlanOp& op = plan.ops[next];
      kosr::net::AppendFrame(conns[op.conn].out, next + 1,
                             kosr::net::kVerbLine, op.line);
      sent[next++] = now;
      worked = true;
      if (next == n) backlog_at_last_send = next - received;
    }
    for (int c = 0; c < plan.conns; ++c) {
      Conn& conn = conns[c];
      if (!FlushSome(pfds[c].fd, conn.out, &conn.out_offset)) peer_lost = true;
      if (conn.out_offset == conn.out.size()) {
        conn.out.clear();
        conn.out_offset = 0;
      }
      pfds[c].events = POLLIN | (conn.out.empty() ? 0 : POLLOUT);
    }
    if (now >= deadline) break;
    timespec zero{0, 0};
    int ready = ppoll(pfds.data(), pfds.size(), &zero, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    if (ready <= 0) {
      if (worked) busy_ns += NowNs() - now;
      continue;
    }
    for (int c = 0; c < plan.conns; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        ssize_t r = recv(pfds[c].fd, buf, sizeof buf, 0);
        if (r > 0) {
          const int64_t at = NowNs();
          conns[c].in.Append(buf, static_cast<size_t>(r));
          kosr::net::ParsedFrame frame;
          std::string error;
          for (;;) {
            auto res = conns[c].in.Pop(&frame, &error);
            if (res == kosr::net::FrameBuffer::PopResult::kFrame) {
              on_frame(frame, at);
            } else if (res == kosr::net::FrameBuffer::PopResult::kBad) {
              throw std::runtime_error("undecodable response: " + error);
            } else {
              break;
            }
          }
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        peer_lost = true;  // EOF or error: the server went away
        break;
      }
    }
    busy_ns += NowNs() - now;
  }
  const double wall_s = (NowNs() - t0) * 1e-9;

  if (auto metrics_out = flags.GetOr("metrics-out", ""); !metrics_out.empty() &&
                                                       !peer_lost) {
    // Blocking METRICS exchange after the plan, outside every timing. Every
    // plan response has arrived, so the connection holds no partial frame.
    kosr::net::FramedClient& client = *conns[0].client;
    fcntl(client.fd(), F_SETFL, fcntl(client.fd(), F_GETFL, 0) & ~O_NONBLOCK);
    // The id continues past the plan's so it cannot collide with a reply.
    client.SendFrameWithId(n + 1, kosr::net::kVerbLine, "METRICS");
    while (auto response = client.Recv()) {
      if (response->request_id == n + 1) {
        std::ofstream(metrics_out) << response->payload << "\n";
        break;
      }
    }
  }

  std::vector<double> late_ms;
  for (size_t i = 0; i < next; ++i) {
    late_ms.push_back((sent[i] - (t0 + plan.ops[i].due_us * 1000)) * 1e-6);
  }
  std::sort(late_ms.begin(), late_ms.end());
  JsonObject out;
  out.Num("ops", static_cast<double>(n))
      .Num("sent", static_cast<double>(next))
      .Num("received", static_cast<double>(received))
      .Num("mismatches", static_cast<double>(mismatches))
      .Num("peer_lost", peer_lost ? 1 : 0)
      .Num("wall_s", wall_s)
      .Num("cpu_frac", wall_s > 0 ? busy_ns * 1e-9 / wall_s : 0)
      .Num("late_p50_ms", Percentile(late_ms, 50))
      .Num("late_p99_ms", Percentile(late_ms, 99))
      .Num("late_max_ms", late_ms.empty() ? 0 : late_ms.back())
      .Num("backlog_at_last_send", static_cast<double>(backlog_at_last_send));
  std::ofstream(Required(flags, "out")) << out.Text() << "\n";

  if (auto path = flags.GetOr("observed", ""); !path.empty()) {
    std::ofstream obs(path);
    for (size_t i = 0; i < pool_size; ++i) {
      if (!costs_by_idx[i].empty()) obs << i << " " << costs_by_idx[i] << "\n";
    }
  }
  // One "<due_us> <kind> <latency_ms> <late_ms>" line per op: latency from
  // the due time, and how late the send left. A refused, failed, missing or
  // wrong response has latency -1: it counts as a failure and misses every
  // latency limit.
  std::ofstream lat(Required(flags, "latencies"));
  lat.precision(9);
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = t0 + plan.ops[i].due_us * 1000;
    lat << plan.ops[i].due_us << " " << plan.ops[i].kind << " "
        << (ok[i] ? (recv_at[i] - due) * 1e-6 : -1.0) << " "
        << (i < next ? (sent[i] - due) * 1e-6 : -1.0) << "\n";
  }
  if (auto path = flags.GetOr("acked", ""); !path.empty()) {
    std::ofstream acks(path);
    for (const std::string& line : acked) acks << line << "\n";
  }
  return 0;
}

int CmdStub(const Flags& flags) {
  const int64_t delay_ns = static_cast<int64_t>(Real(flags, "delay-ms") * 1e6);
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  int listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(listen_fd, 64) != 0 ||
      getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error("cannot listen on 127.0.0.1");
  }
  SetNonBlocking(listen_fd);
  std::printf("listen=127.0.0.1:%u\n", ntohs(addr.sin_port));
  std::fflush(stdout);

  struct StubConn {
    int fd = -1;
    kosr::net::FrameBuffer in;
    std::string out;
    size_t out_offset = 0;
  };
  struct Reply {
    int64_t at;
    size_t conn;
    uint64_t request_id;
  };
  std::vector<std::unique_ptr<StubConn>> conns;
  std::deque<Reply> replies;  // FIFO: a constant delay keeps it ordered
  char buf[65536];
  for (;;) {
    const int64_t now = NowNs();
    while (!replies.empty() && replies.front().at <= now) {
      StubConn& c = *conns[replies.front().conn];
      kosr::net::AppendFrame(c.out, replies.front().request_id,
                             kosr::net::kStatusOk, "OK PONG");
      replies.pop_front();
    }
    std::vector<pollfd> pfds(conns.size() + 1);
    pfds[0] = {listen_fd, POLLIN, 0};
    for (size_t i = 0; i < conns.size(); ++i) {
      StubConn& c = *conns[i];
      if (c.fd >= 0 && !FlushSome(c.fd, c.out, &c.out_offset)) {
        close(c.fd);
        c.fd = -1;
      }
      if (c.out_offset == c.out.size()) {
        c.out.clear();
        c.out_offset = 0;
      }
      pfds[i + 1] = {c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
    }
    // Busy-polls like the generator, so its replies leave on time.
    timespec zero{0, 0};
    if (ppoll(pfds.data(), pfds.size(), &zero, nullptr) <= 0) continue;
    if (pfds[0].revents & POLLIN) {
      int fd;
      while ((fd = accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC)) >= 0) {
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        SetNonBlocking(fd);
        conns.push_back(std::make_unique<StubConn>());
        conns.back()->fd = fd;
      }
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      StubConn& c = *conns[i];
      if (c.fd < 0 || (pfds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      ssize_t r;
      while ((r = recv(c.fd, buf, sizeof buf, 0)) > 0) {
        const int64_t at = NowNs();
        c.in.Append(buf, static_cast<size_t>(r));
        kosr::net::ParsedFrame frame;
        std::string error;
        while (c.in.Pop(&frame, &error) ==
               kosr::net::FrameBuffer::PopResult::kFrame) {
          replies.push_back({at + delay_ns, i, frame.request_id});
        }
      }
      if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
        close(c.fd);
        c.fd = -1;
      }
    }
  }
}

}  // namespace servebench
