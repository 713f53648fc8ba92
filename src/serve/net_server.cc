#include "serve/net_server.h"

#ifdef __linux__

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"

namespace dspot {

namespace {

/// Per-connection unflushed reply bytes above which the server stops
/// reading that connection (admission backpressure) until it drains
/// below half of this.
constexpr size_t kMaxWriteBufferBytes = size_t{4} << 20;

/// How long a drain lets connections finish flushing before they are
/// force-closed (a drain must not hang on a client that stopped reading).
constexpr double kDrainTimeoutMs = 5000.0;

/// Floor of the per-connection in-flight window; the window itself is
/// max(engine queue_cap, this).
constexpr uint64_t kMinInFlight = 256;

std::string ErrnoText() { return std::strerror(errno); }

std::string PeerLabel(const sockaddr_in& addr) {
  char text[INET_ADDRSTRLEN] = "?";
  ::inet_ntop(AF_INET, &addr.sin_addr, text, sizeof(text));
  return std::string(text) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

NetServer::NetServer(ServeEngine* engine, const NetServerOptions& options)
    : engine_(engine),
      options_(options),
      max_in_flight_(std::max<uint64_t>(engine->queue_cap(), kMinInFlight)) {
  options_.max_conns = std::max<size_t>(size_t{1}, options_.max_conns);
}

NetServer::~NetServer() {
  for (auto& [id, conn] : conns_) {
    if (conn.is_socket) ::close(conn.in_fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

Status NetServer::OpenWakePipe() {
  if (wake_fds_[0] >= 0) return Status::Ok();
  if (::pipe2(wake_fds_, O_CLOEXEC | O_NONBLOCK) != 0) {
    return Status::IoError("net_server: pipe2: " + ErrnoText());
  }
  return Status::Ok();
}

Status NetServer::Start() {
  DSPOT_RETURN_IF_ERROR(OpenWakePipe());
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("net_server: socket: " + ErrnoText());
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("net_server: bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IoError("net_server: bind " + options_.bind_address + ":" +
                           std::to_string(options_.port) + ": " + ErrnoText());
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::IoError("net_server: listen: " + ErrnoText());
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return Status::IoError("net_server: getsockname: " + ErrnoText());
  }
  port_ = ntohs(bound.sin_port);
  return Status::Ok();
}

Status NetServer::AttachStream(int in_fd, int out_fd, std::string name) {
  if (stream_id_ != 0) {
    return Status::FailedPrecondition(
        "net_server: a stream is already attached");
  }
  DSPOT_RETURN_IF_ERROR(OpenWakePipe());
  Conn& conn = AddConn(std::move(name));
  conn.in_fd = in_fd;
  conn.out_fd = out_fd;
  stream_id_ = conn.id;
  return Status::Ok();
}

NetServer::Conn& NetServer::AddConn(std::string label) {
  const uint64_t id = next_conn_id_++;
  Conn& conn = conns_.try_emplace(id, std::move(label)).first->second;
  conn.id = id;
  return conn;
}

void NetServer::Wake() {
  // Async-signal-safe: one byte is enough, and a full pipe already
  // guarantees a pending wakeup.
  const uint8_t byte = 0;
  [[maybe_unused]] ssize_t ignored = ::write(wake_fds_[1], &byte, 1);
}

void NetServer::Shutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  Wake();
}

NetServerStats NetServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

Status NetServer::Run() {
  if (wake_fds_[0] < 0) {
    return Status::FailedPrecondition(
        "net_server: Run before Start or AttachStream");
  }
  // What each pollfd entry stands for: the wake pipe, the listener, or one
  // direction of a connection (a socket may appear twice, once per
  // direction).
  enum class Slot { kWake, kListener, kRead, kWrite };
  std::vector<pollfd> fds;
  std::vector<std::pair<Slot, uint64_t>> slots;
  auto watch = [&](int fd, short events, Slot slot, uint64_t id) {
    fds.push_back(pollfd{fd, events, 0});
    slots.emplace_back(slot, id);
  };
  std::chrono::steady_clock::time_point drain_start;
  for (;;) {
    if (shutdown_requested_.load(std::memory_order_acquire) && !draining_) {
      drain_start = std::chrono::steady_clock::now();
      BeginDrain();
    }
    if (listen_fd_ < 0 && conns_.empty()) {
      return stream_status_;
    }
    if (draining_ && std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - drain_start)
                             .count() > kDrainTimeoutMs) {
      while (!conns_.empty()) {
        Conn& conn = conns_.begin()->second;
        Teardown(conn,
                 Status::DeadlineExceeded(conn.label +
                                          ": drain timeout; force-closed"),
                 false);
      }
      return stream_status_;
    }
    // The set is rebuilt from connection state every turn, so pausing or
    // resuming a direction needs no bookkeeping beyond that state.
    fds.clear();
    slots.clear();
    watch(wake_fds_[0], POLLIN, Slot::kWake, 0);
    if (listen_fd_ >= 0) watch(listen_fd_, POLLIN, Slot::kListener, 0);
    for (const auto& [id, conn] : conns_) {
      if (WantsRead(conn)) watch(conn.in_fd, POLLIN, Slot::kRead, id);
      if (conn.unflushed() > 0) watch(conn.out_fd, POLLOUT, Slot::kWrite, id);
    }
    // During a drain, poll with a timeout so the drain deadline fires
    // even if no fd ever becomes ready again.
    if (::poll(fds.data(), fds.size(), draining_ ? 50 : -1) < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("net_server: poll: " + ErrnoText());
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const auto [slot, id] = slots[i];
      if (slot == Slot::kWake) {
        uint8_t sink[256];
        while (::read(wake_fds_[0], sink, sizeof(sink)) > 0) {
        }
        // The wake entry comes first. A shutdown wins over the other
        // events of this turn: they stay ready, and the next turn begins
        // the drain before handling any of them.
        if (shutdown_requested_.load(std::memory_order_acquire) &&
            !draining_) {
          break;
        }
        continue;
      }
      if (slot == Slot::kListener) {
        AcceptReady();
        continue;
      }
      // An entry whose connection was torn down earlier in this same turn
      // no longer resolves — skip it.
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      // POLLHUP and POLLERR take the same path as readiness: the read or
      // write that follows reports end of input or the error itself.
      if (slot == Slot::kWrite) {
        if (FlushWrites(it->second)) MaybeRetire(it->second);
      } else {
        HandleReadable(it->second);
      }
    }
    ProcessCompletions();
  }
}

void NetServer::BeginDrain() {
  draining_ = true;
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Stop reading every connection; in-flight replies still complete and
  // flush before the connection retires.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) {
    Conn& conn = conns_.at(id);
    conn.read_closed = true;
    MaybeRetire(conn);
  }
}

void NetServer::AcceptReady() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd =
        ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      std::fprintf(stderr, "dspot_serve: accept: %s\n", ErrnoText().c_str());
      break;
    }
    if (conns_.size() >= options_.max_conns) {
      // Accept-then-close: the client sees an immediate EOF instead of a
      // connection that hangs in the backlog.
      ::close(fd);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected_at_capacity;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn& conn = AddConn("conn " + PeerLabel(peer));
    conn.in_fd = fd;
    conn.out_fd = fd;
    conn.is_socket = true;
    DSPOT_COUNT("serve.net.accepted", 1);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
  }
}

bool NetServer::WantsRead(const Conn& conn) const {
  return !conn.read_closed && !conn.paused_read &&
         conn.in_flight < max_in_flight_;
}

void NetServer::HandleReadable(Conn& conn) {
  // One read per readiness event: the stream's fds may be blocking (the
  // server never changes flags on an fd it did not open), and poll only
  // promises that one read will not block.
  uint8_t buf[65536];
  const ssize_t n = ::read(conn.in_fd, buf, sizeof(buf));
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    Teardown(conn, Status::IoError(conn.label + ": read: " + ErrnoText()),
             false);
    return;
  }
  if (n == 0) {
    // End of input: a TCP client's shutdown(SHUT_WR) or the stream's EOF.
    // The window never holds back a complete frame when a read happens,
    // so buffered bytes here are a frame cut short — a protocol error
    // like any other, not a quiet end.
    if (conn.assembler.buffered() != 0) {
      Teardown(conn,
               Status::DataLoss(
                   conn.label + ": byte " +
                   std::to_string(conn.assembler.stream_offset()) + ": " +
                   std::to_string(conn.assembler.buffered()) +
                   " trailing bytes form an incomplete frame"),
               true);
      return;
    }
    conn.read_closed = true;
    MaybeRetire(conn);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.bytes_in += static_cast<uint64_t>(n);
  }
  conn.assembler.Append(buf, static_cast<size_t>(n));
  if (!DispatchFrames(conn)) return;
  if (conn.unflushed() > kMaxWriteBufferBytes) {
    // Backpressure: this client is not draining its replies, so stop
    // feeding its requests into the engine until the buffer halves.
    conn.paused_read = true;
    DSPOT_COUNT("serve.net.backpressure_pauses", 1);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.backpressure_pauses;
  }
}

bool NetServer::DispatchFrames(Conn& conn) {
  std::vector<uint8_t> payload;
  while (!conn.read_closed && conn.in_flight < max_in_flight_) {
    StatusOr<bool> have = conn.assembler.Next(&payload);
    if (!have.ok()) {
      Teardown(conn, have.status(), true);
      return false;
    }
    if (!*have) break;
    if (!HandleFrame(conn, payload)) return false;
  }
  return true;
}

bool NetServer::HandleFrame(Conn& conn, const std::vector<uint8_t>& payload) {
  const std::string& context = conn.label;
  StatusOr<uint32_t> tag =
      PeekPayloadTag(payload.data(), payload.size(), context);
  if (!tag.ok()) {
    Teardown(conn, tag.status(), true);
    return false;
  }
  if (*tag == kServeHelloTag) {
    if (conn.saw_first_frame) {
      Teardown(conn,
               Status::InvalidArgument(
                   context + ": tenant handshake arrived after traffic"),
               true);
      return false;
    }
    StatusOr<std::string> tenant =
        DecodeHelloPayload(payload.data(), payload.size(), context);
    if (!tenant.ok()) {
      Teardown(conn, tenant.status(), true);
      return false;
    }
    conn.tenant = std::move(*tenant);
    conn.saw_first_frame = true;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.handshakes;
    return true;
  }
  if (*tag != kServeRequestTag) {
    Teardown(conn,
             Status::DataLoss(context + ": unexpected frame tag " +
                              std::to_string(*tag) +
                              " (want a request or a handshake)"),
             true);
    return false;
  }
  StatusOr<ServeRequest> request =
      DecodeRequestPayload(payload.data(), payload.size(), context);
  if (!request.ok()) {
    Teardown(conn, request.status(), true);
    return false;
  }
  conn.saw_first_frame = true;
  request->tenant = conn.tenant;
  const uint64_t seq = conn.next_submit_seq++;
  ++conn.in_flight;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
  }
  const uint64_t conn_id = conn.id;
  engine_->SubmitWithCallback(
      std::move(*request), [this, conn_id, seq](ServeReply reply) {
        {
          std::lock_guard<std::mutex> lock(completions_mu_);
          completions_.push_back(Completion{conn_id, seq, std::move(reply)});
        }
        Wake();
      });
  return true;
}

void NetServer::ProcessCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  if (batch.empty()) return;
  std::unordered_set<uint64_t> touched;
  for (Completion& completion : batch) {
    auto it = conns_.find(completion.conn_id);
    // A completion for a torn-down connection is dropped with it.
    if (it == conns_.end()) continue;
    it->second.ready.emplace(completion.seq, std::move(completion.reply));
    touched.insert(completion.conn_id);
  }
  for (uint64_t id : touched) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    PumpReplies(it->second);
  }
}

bool NetServer::PumpReplies(Conn& conn) {
  // Replies go out in REQUEST order per connection, regardless of the
  // order worker batches completed them.
  uint64_t queued = 0;
  while (!conn.ready.empty() &&
         conn.ready.begin()->first == conn.next_write_seq) {
    const std::vector<uint8_t> payload =
        EncodeReplyPayload(conn.ready.begin()->second);
    conn.ready.erase(conn.ready.begin());
    ++conn.next_write_seq;
    --conn.in_flight;
    if (payload.size() > kServeMaxFrameBytes) {
      // Unreachable by the forecast-cap static_assert, but a frame no
      // reader could accept must never be emitted.
      Teardown(conn,
               Status::InvalidArgument(
                   conn.label + ": reply payload " +
                   std::to_string(payload.size()) + " bytes exceeds cap"),
               false);
      return false;
    }
    uint8_t prefix[4];
    for (int i = 0; i < 4; ++i) {
      prefix[i] = static_cast<uint8_t>((payload.size() >> (8 * i)) & 0xff);
    }
    conn.wbuf.insert(conn.wbuf.end(), prefix, prefix + 4);
    conn.wbuf.insert(conn.wbuf.end(), payload.begin(), payload.end());
    ++queued;
  }
  if (queued > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.replies += queued;
  }
  if (!FlushWrites(conn)) return false;
  // Replies left the in-flight window: submit the frames it held back.
  if (!DispatchFrames(conn)) return false;
  return !MaybeRetire(conn);
}

bool NetServer::FlushWrites(Conn& conn) {
  while (conn.wpos < conn.wbuf.size()) {
    const uint8_t* data = conn.wbuf.data() + conn.wpos;
    const size_t size = conn.wbuf.size() - conn.wpos;
    // send(MSG_NOSIGNAL) on a socket: a peer that closed mid-reply must
    // surface as EPIPE on this connection, not SIGPIPE for the process.
    // The stream's fd may be a pipe, file or tty, where send() fails.
    const ssize_t n = conn.is_socket
                          ? ::send(conn.out_fd, data, size, MSG_NOSIGNAL)
                          : ::write(conn.out_fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      Teardown(conn, Status::IoError(conn.label + ": write: " + ErrnoText()),
               false);
      return false;
    }
    conn.wpos += static_cast<size_t>(n);
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.bytes_out += static_cast<uint64_t>(n);
  }
  if (conn.wpos == conn.wbuf.size()) {
    conn.wbuf.clear();
    conn.wpos = 0;
  } else if (conn.wpos > (1u << 20) && conn.wpos * 2 >= conn.wbuf.size()) {
    conn.wbuf.erase(conn.wbuf.begin(),
                    conn.wbuf.begin() + static_cast<ptrdiff_t>(conn.wpos));
    conn.wpos = 0;
  }
  if (conn.paused_read && conn.unflushed() < kMaxWriteBufferBytes / 2) {
    conn.paused_read = false;
  }
  return true;
}

bool NetServer::MaybeRetire(Conn& conn) {
  if (conn.read_closed && conn.in_flight == 0 && conn.ready.empty() &&
      conn.unflushed() == 0) {
    Teardown(conn, Status::Ok(), false);
    return true;
  }
  return false;
}

void NetServer::Teardown(Conn& conn, const Status& why, bool protocol_error) {
  if (conn.id == stream_id_) {
    // The stream is the caller's own input: Run() returns how it ended
    // and the caller reports it.
    stream_status_ = why;
  } else if (protocol_error) {
    // One hostile or desynchronized client costs exactly one connection;
    // the located error names the peer and the byte that broke.
    std::fprintf(stderr, "dspot_serve: connection closed: %s\n",
                 why.ToString().c_str());
  } else if (!why.ok()) {
    std::fprintf(stderr, "dspot_serve: connection dropped: %s\n",
                 why.ToString().c_str());
  }
  if (protocol_error) DSPOT_COUNT("serve.net.desync_teardowns", 1);
  // The stream's fds belong to the caller (fd 0 may be its terminal).
  if (conn.is_socket) ::close(conn.in_fd);
  const uint64_t id = conn.id;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.closed;
    if (protocol_error) ++stats_.desync_teardowns;
  }
  // `conn` dangles past this line.
  conns_.erase(id);
}

}  // namespace dspot

#else  // !__linux__

namespace dspot {

// The transport is Linux-only (accept4, pipe2); elsewhere both serve
// modes report Unimplemented.

NetServer::NetServer(ServeEngine* engine, const NetServerOptions& options)
    : engine_(engine), options_(options), max_in_flight_(0) {}

NetServer::~NetServer() = default;

Status NetServer::Start() {
  return Status::Unimplemented("net_server: the transport requires Linux");
}

Status NetServer::AttachStream(int, int, std::string) {
  return Status::Unimplemented("net_server: the transport requires Linux");
}

Status NetServer::Run() {
  return Status::Unimplemented("net_server: the transport requires Linux");
}

void NetServer::Shutdown() {}

NetServerStats NetServer::stats() const { return NetServerStats{}; }

}  // namespace dspot

#endif  // __linux__
