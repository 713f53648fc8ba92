// dspot_serve — the DSPOT model server.
//
// Speaks the length-prefixed frame protocol of src/serve/protocol.h on
// stdin/stdout: each request frame is admitted into a bounded queue,
// batched onto the worker pool, and answered with one reply frame IN
// ADMISSION ORDER. Replies are a pure function of the request sequence —
// bit-identical at any --threads setting — as long as a --spill-dir is
// configured (so LRU evictions reload exactly) and deadlines are off.
//
// Modes:
//   (default)          serve: request frames on stdin -> replies on stdout
//     [--threads T]              worker threads (default 1; 0 = hardware)
//     [--queue-cap N]            admission bound; overflow sheds the
//                                oldest request with ResourceExhausted
//     [--tenant-quota N]         per-tenant queue slots (0 = no slicing);
//                                a flooding tenant sheds only itself
//     [--deadline-ms MS]         default per-request budget (0 = none)
//     [--max-resident-bytes B]   registry budget; accepts 64M / 2GiB / ...
//     [--spill-dir D]            spill-log directory (created)
//     [--shards N]               registry shards (default 8)
//     [--max-batch N]            dispatcher batch size (default 64)
//     [--metrics-json F]         write an obs metrics snapshot on exit
//   --listen PORT      serve the same frame protocol over TCP (127.0.0.1;
//                      0 = ephemeral port) instead of stdin/stdout
//     [--max-conns N]            connection cap (default 256)
//     [--port-file F]            write the bound port to F (for scripts
//                                using --listen 0)
//   --connect HOST:PORT  client: stream request frames from stdin to a
//                      server, reply frames from the server to stdout,
//                      byte-for-byte
//     [--tenant NAME]            send a tenant handshake first
//   --gen-requests N   generate a deterministic request stream on stdout
//     [--gen-keywords K] [--gen-ticks T] [--gen-horizon H] [--seed S]
//   --print-replies    decode reply frames on stdin to readable text
//
// Both serve modes run NetServer's event loop (src/serve/net_server.h):
// stdin/stdout is one more connection of it, so the two transports read,
// window, answer and fail alike. SIGINT/SIGTERM drain gracefully in both:
// the server stops accepting and reading, answers every in-flight request
// and flushes its reply; --metrics-json is still written and the exit
// code is 0.
//
// Flags parse strictly (see src/common/flags.h): empty values, trailing
// garbage, unknown suffixes and unknown flags are usage errors naming the
// flag, never silently zero or ignored.
//
// Exit code 0 on success (including error *replies* — those belong to
// their requests), 1 on a transport or usage error.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/parse_util.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "serve/net_server.h"
#include "serve/protocol.h"
#include "serve/serve_engine.h"

namespace dspot {
namespace {

/// The handler does only async-signal-safe work: store the signal number
/// and poke the server's wake pipe (an atomic store + a write).
std::sig_atomic_t volatile g_signal = 0;
std::atomic<NetServer*> g_net_server{nullptr};

extern "C" void HandleShutdownSignal(int sig) {
  g_signal = sig;
  NetServer* server = g_net_server.load(std::memory_order_acquire);
  if (server != nullptr) {
    server->Shutdown();
  }
}

bool InstallShutdownHandlers() {
  struct sigaction action{};
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: poll() must return on the signal
  if (::sigaction(SIGINT, &action, nullptr) != 0 ||
      ::sigaction(SIGTERM, &action, nullptr) != 0) {
    std::fprintf(stderr, "dspot_serve: sigaction: %s\n",
                 std::strerror(errno));
    return false;
  }
  return true;
}

/// xorshift64* — the deterministic generator behind --gen-requests.
uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545F4914F6CDD1Dull;
}

/// A synthetic activity series for keyword `kw`: baseline + weekly wave +
/// one burst, with LCG jitter. Deterministic in (seed, kw, n_ticks).
std::vector<double> SyntheticSeries(uint64_t seed, uint64_t kw,
                                    size_t n_ticks) {
  std::vector<double> values(n_ticks);
  uint64_t state = seed * 1000003u + kw * 7919u + 1;
  const double base = 40.0 + static_cast<double>(kw % 17) * 3.0;
  const size_t burst = 20 + static_cast<size_t>(NextRand(&state) % 40);
  for (size_t t = 0; t < n_ticks; ++t) {
    double v = base + 10.0 * std::sin(2.0 * 3.141592653589793 *
                                      static_cast<double>(t) / 7.0);
    if (t >= burst && t < burst + 3) {
      v += 60.0;
    }
    v += static_cast<double>(NextRand(&state) % 1000) / 500.0 - 1.0;
    values[t] = v < 0.0 ? 0.0 : v;
  }
  return values;
}

int GenerateRequests(const Flags& flags) {
  int64_t n = 0;
  int64_t keywords = 0;
  int64_t ticks = 0;
  int64_t horizon = 0;
  int64_t seed = 0;
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  if (!flags.ParseInt("--gen-requests", 200, 1, kMax, &n) ||
      !flags.ParseInt("--gen-keywords", 20, 1, kMax, &keywords) ||
      !flags.ParseInt("--gen-ticks", 96, 16, kMax, &ticks) ||
      !flags.ParseInt("--gen-horizon", 8, 1, kMax, &horizon) ||
      !flags.ParseInt("--seed", 42, 0, kMax, &seed)) {
    return 1;
  }
  uint64_t state = static_cast<uint64_t>(seed) ^ 0x9E3779B97F4A7C15ull;
  uint64_t id = 0;
  // One cold fit per keyword first, so every later request has a model.
  for (int64_t kw = 0; kw < keywords; ++kw) {
    ServeRequest request;
    request.id = id++;
    request.op = ServeOp::kFit;
    request.keyword = "kw" + std::to_string(kw);
    request.values = SyntheticSeries(static_cast<uint64_t>(seed),
                                     static_cast<uint64_t>(kw),
                                     static_cast<size_t>(ticks));
    Status status = WriteRequestFrame(request, std::cout);
    if (!status.ok()) {
      std::fprintf(stderr, "dspot_serve: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  // Then a mixed read-mostly tail: ~90% forecast, ~8% outlier-score,
  // ~2% refit over a longer window.
  for (int64_t i = keywords; i < n; ++i) {
    const uint64_t kw = NextRand(&state) % static_cast<uint64_t>(keywords);
    const uint64_t dice = NextRand(&state) % 100;
    ServeRequest request;
    request.id = id++;
    request.keyword = "kw" + std::to_string(kw);
    if (dice < 90) {
      request.op = ServeOp::kForecast;
      request.horizon = static_cast<uint64_t>(horizon);
    } else if (dice < 98) {
      request.op = ServeOp::kOutlierScore;
      request.values = SyntheticSeries(static_cast<uint64_t>(seed), kw,
                                       static_cast<size_t>(ticks / 2));
    } else {
      request.op = ServeOp::kRefit;
      request.values = SyntheticSeries(static_cast<uint64_t>(seed), kw,
                                       static_cast<size_t>(ticks + 8));
    }
    Status status = WriteRequestFrame(request, std::cout);
    if (!status.ok()) {
      std::fprintf(stderr, "dspot_serve: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::cout.flush();
  return std::cout ? 0 : 1;
}

int PrintReplies() {
  ServeReply reply;
  uint64_t count = 0;
  for (;;) {
    StatusOr<bool> have = ReadReplyFrame(std::cin, "stdin", &reply);
    if (!have.ok()) {
      std::fprintf(stderr, "dspot_serve: %s\n",
                   have.status().ToString().c_str());
      return 1;
    }
    if (!*have) {
      break;
    }
    ++count;
    std::printf("reply id=%" PRIu64 " status=%s values=%zu rmse=%.6g",
                reply.id, StatusCodeName(reply.status.code()),
                reply.values.size(), reply.rmse);
    if (!reply.values.empty()) {
      std::printf(" first=%.6g", reply.values.front());
    }
    if (!reply.status.ok()) {
      std::printf(" message=\"%s\"", reply.status.message().c_str());
    }
    std::printf("\n");
  }
  std::printf("total replies: %" PRIu64 "\n", count);
  return 0;
}

int Serve(const Flags& flags) {
  int64_t threads = 0;
  int64_t queue_cap = 0;
  int64_t shards = 0;
  int64_t max_batch = 0;
  int64_t tenant_quota = 0;
  int64_t listen_port = 0;
  int64_t max_conns = 0;
  double deadline_ms = 0.0;
  uint64_t max_resident_bytes = 0;
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  if (!flags.ParseInt("--threads", 1, 0, kMax, &threads) ||
      !flags.ParseInt("--queue-cap", 1024, 1, kMax, &queue_cap) ||
      !flags.ParseInt("--shards", 8, 1, kMax, &shards) ||
      !flags.ParseInt("--max-batch", 64, 1, kMax, &max_batch) ||
      !flags.ParseInt("--tenant-quota", 0, 0, kMax, &tenant_quota) ||
      !flags.ParseInt("--listen", 0, 0, 65535, &listen_port) ||
      !flags.ParseInt("--max-conns", 256, 1, kMax, &max_conns) ||
      !flags.ParseDouble("--deadline-ms", 0.0, 0.0, &deadline_ms) ||
      !flags.ParseByteSize("--max-resident-bytes", 256ull << 20,
                           &max_resident_bytes)) {
    return 1;
  }
  const std::string metrics_path = flags.GetString("--metrics-json");
  if (!metrics_path.empty()) {
    ObsRegistry::Instance().Enable();
  }
  if (!InstallShutdownHandlers()) {
    return 1;
  }

  RegistryOptions registry_options;
  registry_options.num_shards = static_cast<size_t>(shards);
  registry_options.max_resident_bytes = max_resident_bytes;
  registry_options.spill_dir = flags.GetString("--spill-dir");
  if (!registry_options.spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(registry_options.spill_dir, ec);
    if (ec) {
      std::fprintf(stderr, "dspot_serve: --spill-dir: cannot create '%s': %s\n",
                   registry_options.spill_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }
  ModelRegistry registry(registry_options);
  if (!registry.open_status().ok()) {
    std::fprintf(stderr, "dspot_serve: --spill-dir: %s\n",
                 registry.open_status().ToString().c_str());
    return 1;
  }

  ServeOptions serve_options;
  serve_options.num_threads = static_cast<size_t>(threads);
  serve_options.queue_cap = static_cast<size_t>(queue_cap);
  serve_options.max_batch = static_cast<size_t>(max_batch);
  serve_options.default_deadline_ms = deadline_ms;
  serve_options.tenant_quota = static_cast<size_t>(tenant_quota);
  ServeEngine engine(&registry, serve_options);

  // One event loop serves both modes: a TCP listener, or stdin/stdout
  // as its only connection.
  const bool listen = flags.Has("--listen");
  NetServerOptions net_options;
  net_options.port = static_cast<uint16_t>(listen_port);
  net_options.max_conns = static_cast<size_t>(max_conns);
  NetServer server(&engine, net_options);
  Status status = listen ? server.Start()
                         : server.AttachStream(STDIN_FILENO, STDOUT_FILENO,
                                               "stdin");
  if (!status.ok()) {
    std::fprintf(stderr, "dspot_serve: %s%s\n", listen ? "--listen: " : "",
                 status.ToString().c_str());
    engine.Stop();
    return 1;
  }
  if (listen) {
    // Scripts that pass --listen 0 read the kernel-chosen port here.
    const std::string port_file = flags.GetString("--port-file");
    if (!port_file.empty()) {
      std::ofstream out(port_file, std::ios::trunc);
      out << server.port() << "\n";
      out.flush();
      if (!out) {
        std::fprintf(stderr, "dspot_serve: --port-file: cannot write '%s'\n",
                     port_file.c_str());
        engine.Stop();
        return 1;
      }
    }
    std::fprintf(stderr, "dspot_serve: listening on %s:%u\n",
                 net_options.bind_address.c_str(),
                 static_cast<unsigned>(server.port()));
  }
  g_net_server.store(&server, std::memory_order_release);
  if (g_signal != 0) {
    server.Shutdown();  // the signal raced the setup; drain immediately
  }
  status = server.Run();
  g_net_server.store(nullptr, std::memory_order_release);
  int exit_code = 0;
  if (!status.ok()) {
    std::fprintf(stderr, "dspot_serve: %s\n", status.ToString().c_str());
    exit_code = 1;
  }
  // Engine callbacks reference the server: Stop() must drain them before
  // `server` leaves scope.
  engine.Stop();
  if (listen) {
    const NetServerStats net = server.stats();
    std::fprintf(stderr,
                 "dspot_serve: tcp: %" PRIu64 " conns (%" PRIu64
                 " over cap, %" PRIu64 " desync teardowns), %" PRIu64
                 " requests in / %" PRIu64 " replies out, %" PRIu64
                 " B in / %" PRIu64 " B out\n",
                 net.accepted, net.rejected_at_capacity, net.desync_teardowns,
                 net.requests, net.replies, net.bytes_in, net.bytes_out);
  }
  if (g_signal != 0) {
    std::fprintf(stderr,
                 "dspot_serve: caught signal %d; drained in-flight replies "
                 "and shut down\n",
                 static_cast<int>(g_signal));
  }

  const ServeStats stats = engine.stats();
  const RegistryStats reg = registry.stats();
  std::fprintf(stderr,
               "dspot_serve: served %" PRIu64 " requests (%" PRIu64
               " shed, %" PRIu64 " deadline-expired); registry %" PRIu64
               " hits / %" PRIu64 " misses / %" PRIu64 " reloads / %" PRIu64
               " evictions, %" PRIu64 " models resident\n",
               stats.completed, stats.admission_rejects,
               stats.deadline_expired, reg.hits, reg.misses, reg.reloads,
               reg.evictions, reg.resident_models);
  // Written even on a signal-driven drain: the operator's last metrics
  // snapshot must survive a SIGTERM'd server.
  if (!metrics_path.empty()) {
    Status status = WriteMetricsJson(metrics_path);
    if (!status.ok()) {
      std::fprintf(stderr, "dspot_serve: --metrics-json: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  return exit_code;
}

/// write()s all of `data` to `fd` (MSG_NOSIGNAL when it is a socket, so a
/// dead peer surfaces as EPIPE instead of killing the process).
bool SendAll(int fd, const void* data, size_t size, bool is_socket) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = is_socket ? ::send(fd, p, size, MSG_NOSIGNAL)
                                : ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

/// --connect HOST:PORT — a transparent frame pipe: stdin bytes go to the
/// server verbatim, server bytes come back on stdout verbatim (so replies
/// stay byte-comparable against stdin-mode output), with an optional
/// tenant handshake sent first.
int Connect(const Flags& flags) {
  const std::string target = flags.GetString("--connect");
  if (target.empty()) {
    std::fprintf(stderr, "dspot_serve: --connect: requires HOST:PORT\n");
    return 1;
  }
  std::string host = "127.0.0.1";
  std::string port_text = target;
  const size_t colon = target.rfind(':');
  if (colon != std::string::npos) {
    host = target.substr(0, colon);
    port_text = target.substr(colon + 1);
    if (host.empty()) host = "127.0.0.1";
  }
  auto port = ParseInt64Text(port_text);
  if (!port.ok() || *port < 1 || *port > 65535) {
    std::fprintf(stderr,
                 "dspot_serve: --connect: '%s' is not a port in [1, 65535]\n",
                 port_text.c_str());
    return 1;
  }
  const std::string tenant = flags.GetString("--tenant");
  if (!tenant.empty()) {
    Status status = ValidateTenantName(tenant);
    if (!status.ok()) {
      std::fprintf(stderr, "dspot_serve: --tenant: %s\n",
                   status.message().c_str());
      return 1;
    }
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr,
                 "dspot_serve: --connect: '%s' is not an IPv4 address\n",
                 host.c_str());
    return 1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    std::fprintf(stderr, "dspot_serve: socket: %s\n", std::strerror(errno));
    return 1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::fprintf(stderr, "dspot_serve: connect %s:%" PRId64 ": %s\n",
                 host.c_str(), *port, std::strerror(errno));
    ::close(fd);
    return 1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  if (!tenant.empty()) {
    const std::vector<uint8_t> payload = EncodeHelloPayload(tenant);
    const uint32_t len = static_cast<uint32_t>(payload.size());
    const uint8_t prefix[4] = {
        static_cast<uint8_t>(len & 0xFF),
        static_cast<uint8_t>((len >> 8) & 0xFF),
        static_cast<uint8_t>((len >> 16) & 0xFF),
        static_cast<uint8_t>((len >> 24) & 0xFF)};
    if (!SendAll(fd, prefix, sizeof(prefix), /*is_socket=*/true) ||
        !SendAll(fd, payload.data(), payload.size(), /*is_socket=*/true)) {
      std::fprintf(stderr, "dspot_serve: handshake send: %s\n",
                   std::strerror(errno));
      ::close(fd);
      return 1;
    }
  }

  // Reader: server -> stdout, byte-for-byte, until the server half-closes.
  std::atomic<bool> reader_failed{false};
  std::thread reader([fd, &reader_failed]() {
    std::vector<char> buf(size_t{64} << 10);
    for (;;) {
      const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        std::fprintf(stderr, "dspot_serve: recv: %s\n", std::strerror(errno));
        reader_failed.store(true, std::memory_order_relaxed);
        return;
      }
      if (n == 0) return;
      if (!SendAll(STDOUT_FILENO, buf.data(), static_cast<size_t>(n),
                   /*is_socket=*/false)) {
        std::fprintf(stderr, "dspot_serve: stdout: %s\n",
                     std::strerror(errno));
        reader_failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });

  // Writer (this thread): stdin -> server, then half-close so the server
  // sees EOF and can retire the connection once replies flush.
  bool write_ok = true;
  std::vector<char> buf(size_t{64} << 10);
  for (;;) {
    const ssize_t n = ::read(STDIN_FILENO, buf.data(), buf.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "dspot_serve: stdin: %s\n", std::strerror(errno));
      write_ok = false;
      break;
    }
    if (n == 0) break;
    if (!SendAll(fd, buf.data(), static_cast<size_t>(n), /*is_socket=*/true)) {
      std::fprintf(stderr, "dspot_serve: send: %s\n", std::strerror(errno));
      write_ok = false;
      break;
    }
  }
  ::shutdown(fd, SHUT_WR);
  reader.join();
  ::close(fd);
  return (write_ok && !reader_failed.load(std::memory_order_relaxed)) ? 0 : 1;
}

int Main(int argc, char** argv) {
  const Flags flags("dspot_serve", argc, argv, 1);
  // A typo'd flag on a long-running server must fail fast at startup, not
  // be silently ignored while the operator believes it took effect.
  if (!flags.RejectUnknown(
          {"--help", "--threads", "--queue-cap", "--shards", "--max-batch",
           "--deadline-ms", "--max-resident-bytes", "--spill-dir",
           "--metrics-json", "--gen-requests", "--gen-keywords",
           "--gen-ticks", "--gen-horizon", "--seed", "--print-replies",
           "--tenant-quota", "--listen", "--max-conns", "--port-file",
           "--connect", "--tenant"})) {
    return 1;
  }
  if (flags.Has("--help")) {
    std::fprintf(stderr,
                 "usage: dspot_serve [--threads T] [--queue-cap N] "
                 "[--deadline-ms MS]\n"
                 "                   [--max-resident-bytes B] [--spill-dir D] "
                 "[--shards N]\n"
                 "                   [--max-batch N] [--tenant-quota N] "
                 "[--metrics-json F]\n"
                 "       dspot_serve --listen PORT [--max-conns N] "
                 "[--port-file F]\n"
                 "                   [...all serve flags above]\n"
                 "       dspot_serve --connect HOST:PORT [--tenant NAME]\n"
                 "       dspot_serve --gen-requests N [--gen-keywords K] "
                 "[--gen-ticks T]\n"
                 "                   [--gen-horizon H] [--seed S]\n"
                 "       dspot_serve --print-replies\n");
    return 1;
  }
  if (flags.Has("--gen-requests")) {
    return GenerateRequests(flags);
  }
  if (flags.Has("--print-replies")) {
    return PrintReplies();
  }
  if (flags.Has("--connect")) {
    return Connect(flags);
  }
  return Serve(flags);
}

}  // namespace
}  // namespace dspot

int main(int argc, char** argv) { return dspot::Main(argc, argv); }
