#ifndef DSPOT_SERVE_NET_SERVER_H_
#define DSPOT_SERVE_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"
#include "serve/serve_engine.h"

namespace dspot {

/// dspot_serve's request pump: a single-threaded poll(2) event loop
/// speaking the DSRQ/DSRP frame codec in front of a ServeEngine. Its
/// connections are TCP sockets (Start() binds the listener) and at most
/// one byte stream given as a read fd and a write fd (AttachStream(): the
/// CLI's stdin/stdout). Every connection runs the same code:
///
/// - Frames arrive split at arbitrary byte boundaries; each connection
///   owns a FrameAssembler that reassembles them incrementally. A
///   connection is read once per readiness event, so an fd the server
///   did not open is never switched to O_NONBLOCK.
/// - An optional first frame ("DSRH" tenant handshake) binds the
///   connection to an admission tenant; every request submitted on it
///   then competes only inside that tenant's quota slice.
/// - At most max(engine queue_cap, 256) of a connection's requests are
///   in flight: past that the server neither submits the frames it has
///   buffered nor reads more until replies go out. A single connection
///   therefore never overflows the admission queue on its own.
/// - Replies return to the event loop through ServeEngine callbacks and
///   a wake pipe, are re-ordered back into per-connection request order,
///   and are written with backpressure: a connection whose unflushed
///   bytes exceed 4 MiB stops being read until it drains below half.
/// - A protocol violation (bad tag, undecodable payload, over-cap frame
///   length, end of input inside a frame) tears down THAT connection with
///   a located error; the process and every other connection keep
///   serving. For the stream connection, Run() returns the error.
/// - Shutdown() is async-signal-safe: it closes the listener, lets
///   in-flight replies complete and flush (force-closing connections
///   still open 5 s later), then returns from Run().
///
/// DETERMINISM: one connection's requests are submitted in frame arrival
/// order and its replies are written in the same order, so a connection
/// alone on the engine receives the same reply bytes over TCP as over the
/// stream — at any worker thread count (serve_net_smoke holds the CLI to
/// this).

struct NetServerOptions {
  /// Listen address; the default binds loopback only — serving a public
  /// interface is an explicit operator decision.
  std::string bind_address = "127.0.0.1";
  /// Listen port; 0 asks the kernel for an ephemeral port (read it back
  /// with port() after Start()).
  uint16_t port = 0;
  /// Accepted-connection cap; arrivals beyond it are accepted and
  /// immediately closed so the client sees EOF, not a hung SYN.
  size_t max_conns = 256;
};

/// Transport-level counters (engine-level counts live in ServeStats).
struct NetServerStats {
  uint64_t accepted = 0;
  uint64_t rejected_at_capacity = 0;  ///< accept()ed then closed: over cap
  uint64_t closed = 0;                ///< connections fully torn down
  uint64_t desync_teardowns = 0;      ///< closed due to protocol violations
  uint64_t handshakes = 0;            ///< DSRH frames accepted
  uint64_t requests = 0;              ///< request frames submitted
  uint64_t replies = 0;               ///< reply frames queued to the wire
  uint64_t backpressure_pauses = 0;   ///< reads paused on a full write buffer
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

class NetServer {
 public:
  /// `engine` must outlive the server. Construction is cheap; the fd
  /// work happens in Start() and AttachStream().
  NetServer(ServeEngine* engine, const NetServerOptions& options);

  /// Closes every fd the server opened (Run() must have returned, or
  /// never run); the stream's fds stay open. LIFETIME: reply callbacks
  /// registered with the engine reference this server, so call
  /// engine->Stop() (which drains them) between Run() returning and
  /// destroying the server.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Creates, binds, and listens the server socket. After Ok, port() is
  /// the bound port.
  Status Start();

  /// Serves the frame stream read from `in_fd` as one more connection,
  /// writing its replies to `out_fd` with write(2). The server never
  /// changes the flags of either fd and never closes them. `name` labels
  /// the stream's errors ("stdin: byte N: ..."). One stream per server.
  Status AttachStream(int in_fd, int out_fd, std::string name);

  /// The bound listen port (valid after Start()).
  uint16_t port() const { return port_; }

  /// Runs the event loop on the calling thread — accept, read, submit,
  /// reorder, flush — until there is no listener (never started, or
  /// closed by Shutdown()) and every connection has retired. Returns how
  /// the stream connection ended: Ok on a clean end of input or a drain,
  /// its located error otherwise. A fatal transport error (poll itself
  /// failing) is returned too; TCP connection errors never are.
  Status Run();

  /// Requests a graceful drain: async-signal-safe (a flag store and a
  /// pipe write), callable from any thread or signal handler, idempotent.
  void Shutdown();

  NetServerStats stats() const;

 private:
  struct Conn {
    int in_fd = -1;
    int out_fd = -1;
    bool is_socket = false;  ///< TCP: in_fd == out_fd, owned, send()
    uint64_t id = 0;
    std::string label;  ///< "conn addr:port" or the stream's name
    FrameAssembler assembler;
    std::string tenant;        ///< bound by the handshake; "" = default
    bool saw_first_frame = false;
    bool read_closed = false;  ///< end of input (or we are draining)
    bool paused_read = false;  ///< backpressure: unflushed bytes too many
    uint64_t next_submit_seq = 0;
    uint64_t next_write_seq = 0;
    uint64_t in_flight = 0;    ///< submitted, reply not yet queued to wire
    std::map<uint64_t, ServeReply> ready;  ///< out-of-order replies
    std::vector<uint8_t> wbuf;
    size_t wpos = 0;

    explicit Conn(std::string label_text)
        : label(std::move(label_text)), assembler(label) {}
    size_t unflushed() const { return wbuf.size() - wpos; }
  };

  struct Completion {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    ServeReply reply;
  };

  Status OpenWakePipe();
  Conn& AddConn(std::string label);
  void BeginDrain();
  void AcceptReady();
  /// True while the loop should poll the connection's input.
  bool WantsRead(const Conn& conn) const;
  void HandleReadable(Conn& conn);
  /// Submits buffered frames while the in-flight window has room; false =
  /// the connection was torn down and must not be touched again.
  bool DispatchFrames(Conn& conn);
  /// Decodes and dispatches one frame; false = torn down, as above.
  bool HandleFrame(Conn& conn, const std::vector<uint8_t>& payload);
  void ProcessCompletions();
  /// Encodes ready in-order replies onto the write buffer and flushes.
  bool PumpReplies(Conn& conn);
  bool FlushWrites(Conn& conn);
  void Teardown(Conn& conn, const Status& why, bool protocol_error);
  /// Closes the connection if nothing remains to read, execute, or flush.
  bool MaybeRetire(Conn& conn);
  void Wake();

  ServeEngine* engine_;
  NetServerOptions options_;
  /// Per-connection in-flight request cap: max(engine queue_cap, 256).
  uint64_t max_in_flight_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};
  std::atomic<bool> shutdown_requested_{false};
  bool draining_ = false;

  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, Conn> conns_;  ///< id -> connection
  uint64_t stream_id_ = 0;                    ///< 0 = no stream attached
  Status stream_status_ = Status::Ok();       ///< how the stream ended

  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  mutable std::mutex stats_mu_;
  NetServerStats stats_;
};

}  // namespace dspot

#endif  // DSPOT_SERVE_NET_SERVER_H_
