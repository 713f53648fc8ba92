// dspot_serve load benchmark: primes a spill-backed ModelRegistry with
// ~100k synthetic single-keyword models under a byte budget ~10x smaller
// than the full model set, then drives a deterministic mixed workload
// (~90% forecast / 8% outlier-score / 2% warm refit) through ServeEngine
// as a closed-loop client with a bounded in-flight window. Reports QPS,
// client-observed p50/p99 latency at 1/8/16 worker threads, and the
// eviction/reload churn the budget forces — then checks the reply bytes
// (CRC32 over the canonical wire payloads, in request-id order) are
// bit-identical across thread counts. Emits BENCH_serve.json for CI;
// exits 1 if the 1-thread and 8-thread runs diverge.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/parse_util.h"
#include "serve/model_registry.h"
#include "serve/net_server.h"
#include "serve/protocol.h"
#include "serve/serve_engine.h"
#include "snapshot/codec.h"

#ifdef __linux__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>
#endif

namespace dspot {
namespace {

/// In-flight request window of the closed-loop client. Must stay well
/// below ServeOptions::queue_cap: the determinism contract requires that
/// the admission queue never overflows (shedding depends on timing).
constexpr size_t kWindow = 256;
constexpr size_t kQueueCap = 4096;
constexpr uint64_t kFitTicks = 64;
constexpr uint64_t kHorizon = 8;

double ElapsedMs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// splitmix64: cheap, deterministic request-stream randomness.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A synthetic fitted model for keyword index `i` — the bench measures
/// serving (registry traffic + simulation), not fitting, so models are
/// constructed directly like serve_test does.
ServedModel MakeModel(size_t i) {
  const double seed = static_cast<double>(i % 997);
  ServedModel model;
  model.keyword = "kw" + std::to_string(i);
  model.params.population = 800.0 + seed;
  model.params.beta = 0.15 + seed / 4000.0;
  model.params.delta = 0.11;
  model.params.gamma = 0.07;
  model.params.i0 = 2.0;
  model.params.growth_rate = 0.4 + seed / 2000.0;
  model.params.growth_start = 24 + (i % 16);
  Shock shock;
  shock.keyword = 0;
  shock.period = 7 + (i % 5);
  shock.start = 3 + (i % 4);
  shock.width = 2;
  shock.base_strength = 1.2 + seed / 200.0;
  shock.global_strengths = {1.4, 1.6, 1.4};
  model.shocks.push_back(shock);
  model.fit_ticks = kFitTicks;
  model.rmse = 2.5 + seed / 100.0;
  model.cost_bits = 700.0 + seed;
  return model;
}

/// Deterministic activity series for refit/outlier requests; the phase is
/// derived from the request index so every run generates the same stream.
std::vector<double> RequestSeries(size_t n, uint64_t salt) {
  const double phase =
      static_cast<double>(salt % 628) / 100.0;  // [0, 2*pi)
  std::vector<double> values(n);
  for (size_t t = 0; t < n; ++t) {
    values[t] = 30.0 + 8.0 * std::sin(0.9 * static_cast<double>(t) + phase);
  }
  return values;
}

/// The r-th request of the workload — a pure function of (r, keywords).
ServeRequest MakeRequest(size_t r, size_t num_keywords) {
  const uint64_t h = Mix(static_cast<uint64_t>(r) + 1);
  ServeRequest request;
  request.id = static_cast<uint64_t>(r) + 1;
  request.keyword = "kw" + std::to_string(h % num_keywords);
  const uint64_t roll = Mix(h) % 100;
  if (roll < 90) {
    request.op = ServeOp::kForecast;
    request.horizon = kHorizon;
  } else if (roll < 98) {
    request.op = ServeOp::kOutlierScore;
    request.values = RequestSeries(32, h);
  } else {
    request.op = ServeOp::kRefit;
    // More ticks than the stored fit so the refit warm-starts.
    request.values = RequestSeries(kFitTicks + 8, h);
  }
  return request;
}

struct RunResult {
  bool ok = false;
  double prime_ms = 0.0;  ///< Put of every model (includes all spills)
  double wall_ms = 0.0;   ///< workload only
  double qps = 0.0;
  double p50_ms = 0.0;  ///< all ops, client-observed (submit -> reply)
  double p99_ms = 0.0;
  double forecast_p50_ms = 0.0;
  double forecast_p99_ms = 0.0;
  uint64_t errors = 0;      ///< replies with a non-OK status
  uint64_t evictions = 0;   ///< during the workload (not priming)
  uint64_t reloads = 0;
  uint32_t reply_crc = 0;   ///< CRC32 of reply payloads in id order
};

RunResult RunServe(size_t num_keywords, size_t num_requests, size_t threads,
                   uint64_t budget_bytes, const std::string& spill_dir) {
  RunResult result;
  std::filesystem::remove_all(spill_dir);
  std::filesystem::create_directories(spill_dir);

  RegistryOptions roptions;
  roptions.num_shards = 16;
  roptions.max_resident_bytes = budget_bytes;
  roptions.spill_dir = spill_dir;
  ModelRegistry registry(roptions);

  const auto prime0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < num_keywords; ++i) {
    const Status put = registry.Put(MakeModel(i));
    if (!put.ok()) {
      std::fprintf(stderr, "prime put failed: %s\n", put.ToString().c_str());
      return result;
    }
  }
  result.prime_ms = ElapsedMs(prime0);
  const RegistryStats primed = registry.stats();

  ServeOptions soptions;
  soptions.num_threads = threads;
  soptions.queue_cap = kQueueCap;
  soptions.max_batch = 64;
  // Refits re-run the optimizer; trim the search so the 2% refit share
  // costs milliseconds, not the full offline fit budget.
  soptions.fit.max_outer_rounds = 2;
  soptions.fit.max_shocks_per_keyword = 2;
  ServeEngine engine(&registry, soptions);

  struct InFlight {
    size_t index = 0;
    bool forecast = false;
    std::chrono::steady_clock::time_point submitted;
    std::future<ServeReply> reply;
  };
  std::vector<std::vector<uint8_t>> payloads(num_requests);
  std::vector<double> latency_ms;
  std::vector<double> forecast_latency_ms;
  latency_ms.reserve(num_requests);
  std::deque<InFlight> window;
  bool failed = false;

  const auto settle = [&](InFlight& f) {
    const ServeReply reply = f.reply.get();
    const double ms = ElapsedMs(f.submitted);
    latency_ms.push_back(ms);
    if (f.forecast) forecast_latency_ms.push_back(ms);
    if (!reply.status.ok()) {
      ++result.errors;
      if (result.errors <= 3) {
        std::fprintf(stderr, "request %zu failed: %s\n", f.index + 1,
                     reply.status.ToString().c_str());
      }
      failed = true;
    }
    payloads[f.index] = EncodeReplyPayload(reply);
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (size_t r = 0; r < num_requests && !failed; ++r) {
    ServeRequest request = MakeRequest(r, num_keywords);
    InFlight f;
    f.index = r;
    f.forecast = request.op == ServeOp::kForecast;
    f.submitted = std::chrono::steady_clock::now();
    f.reply = engine.Submit(std::move(request));
    window.push_back(std::move(f));
    if (window.size() >= kWindow) {
      settle(window.front());
      window.pop_front();
    }
  }
  while (!window.empty()) {
    settle(window.front());
    window.pop_front();
  }
  result.wall_ms = ElapsedMs(t0);
  engine.Stop();
  if (failed) return result;

  const RegistryStats after = registry.stats();
  result.evictions = after.evictions - primed.evictions;
  result.reloads = after.reloads - primed.reloads;
  result.qps = result.wall_ms > 0.0
                   ? static_cast<double>(num_requests) * 1000.0 / result.wall_ms
                   : 0.0;
  result.p50_ms = bench::Percentile(&latency_ms, 0.50);
  result.p99_ms = bench::Percentile(&latency_ms, 0.99);
  result.forecast_p50_ms = bench::Percentile(&forecast_latency_ms, 0.50);
  result.forecast_p99_ms = bench::Percentile(&forecast_latency_ms, 0.99);

  std::vector<uint8_t> digest;
  for (const auto& payload : payloads) {
    digest.insert(digest.end(), payload.begin(), payload.end());
  }
  result.reply_crc = Crc32(digest.data(), digest.size());
  result.ok = true;
  return result;
}

#ifdef __linux__

/// Blocking loopback socket client plumbing for the TCP legs.
bool NetSendAll(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// Blocks until one whole frame payload arrives (false: EOF or error).
bool NetRecvFrame(int fd, FrameAssembler* assembler,
                  std::vector<uint8_t>* payload) {
  uint8_t chunk[16384];
  for (;;) {
    StatusOr<bool> have = assembler->Next(payload);
    if (!have.ok() || *have) return have.ok();
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    assembler->Append(chunk, static_cast<size_t>(n));
  }
}

int NetConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool NetSendFrame(int fd, const std::vector<uint8_t>& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint8_t prefix[4] = {static_cast<uint8_t>(len & 0xFF),
                             static_cast<uint8_t>((len >> 8) & 0xFF),
                             static_cast<uint8_t>((len >> 16) & 0xFF),
                             static_cast<uint8_t>((len >> 24) & 0xFF)};
  return NetSendAll(fd, prefix, sizeof(prefix)) &&
         NetSendAll(fd, payload.data(), payload.size());
}

struct NetRunResult {
  bool ok = false;
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;  ///< client-observed over the socket
  double p99_ms = 0.0;
  uint64_t errors = 0;
  uint32_t reply_crc = 0;  ///< raw reply payload bytes in arrival order
};

/// The same closed-loop workload as RunServe, but spoken over a loopback
/// TCP connection to a NetServer — one pipelined connection, a bounded
/// in-flight window, latencies measured send-to-receive. Replies arrive
/// in request order (the transport reorders), so the arrival-order CRC is
/// directly comparable with the engine-direct runs' id-order CRC.
NetRunResult RunServeNet(size_t num_keywords, size_t num_requests,
                         size_t threads, uint64_t budget_bytes,
                         const std::string& spill_dir) {
  NetRunResult result;
  std::filesystem::remove_all(spill_dir);
  std::filesystem::create_directories(spill_dir);

  RegistryOptions roptions;
  roptions.num_shards = 16;
  roptions.max_resident_bytes = budget_bytes;
  roptions.spill_dir = spill_dir;
  ModelRegistry registry(roptions);
  for (size_t i = 0; i < num_keywords; ++i) {
    const Status put = registry.Put(MakeModel(i));
    if (!put.ok()) {
      std::fprintf(stderr, "net prime put failed: %s\n",
                   put.ToString().c_str());
      return result;
    }
  }

  ServeOptions soptions;
  soptions.num_threads = threads;
  soptions.queue_cap = kQueueCap;
  soptions.max_batch = 64;
  soptions.fit.max_outer_rounds = 2;
  soptions.fit.max_shocks_per_keyword = 2;
  ServeEngine engine(&registry, soptions);

  NetServerOptions noptions;
  NetServer server(&engine, noptions);
  Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "net server start: %s\n", status.ToString().c_str());
    engine.Stop();
    return result;
  }
  std::thread loop([&server]() { (void)server.Run(); });

  const int fd = NetConnect(server.port());
  if (fd < 0) {
    std::fprintf(stderr, "net connect failed: %s\n", std::strerror(errno));
    server.Shutdown();
    loop.join();
    engine.Stop();
    return result;
  }

  std::deque<std::chrono::steady_clock::time_point> sent;
  std::vector<double> latency_ms;
  latency_ms.reserve(num_requests);
  FrameAssembler assembler("bench net");
  std::vector<uint8_t> payload;
  std::vector<uint8_t> digest;
  bool failed = false;
  size_t received = 0;

  const auto settle_one = [&]() {
    if (!NetRecvFrame(fd, &assembler, &payload)) {
      failed = true;
      return;
    }
    latency_ms.push_back(ElapsedMs(sent.front()));
    sent.pop_front();
    StatusOr<ServeReply> reply =
        DecodeReplyPayload(payload.data(), payload.size(), "bench net");
    if (!reply.ok()) {
      failed = true;
      return;
    }
    if (!reply->status.ok()) ++result.errors;
    digest.insert(digest.end(), payload.begin(), payload.end());
    ++received;
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (size_t r = 0; r < num_requests && !failed; ++r) {
    sent.push_back(std::chrono::steady_clock::now());
    if (!NetSendFrame(fd, EncodeRequestPayload(MakeRequest(r, num_keywords)))) {
      failed = true;
      break;
    }
    if (sent.size() >= kWindow) settle_one();
  }
  while (!failed && received < num_requests) settle_one();
  result.wall_ms = ElapsedMs(t0);

  ::shutdown(fd, SHUT_WR);
  ::close(fd);
  server.Shutdown();
  loop.join();
  engine.Stop();
  if (failed || result.errors > 0) {
    std::fprintf(stderr, "net leg failed (%" PRIu64 " error replies)\n",
                 result.errors);
    return result;
  }
  result.qps = result.wall_ms > 0.0 ? static_cast<double>(num_requests) *
                                          1000.0 / result.wall_ms
                                    : 0.0;
  result.p50_ms = bench::Percentile(&latency_ms, 0.50);
  result.p99_ms = bench::Percentile(&latency_ms, 0.99);
  result.reply_crc = Crc32(digest.data(), digest.size());
  result.ok = true;
  return result;
}

struct FairnessResult {
  bool ok = false;
  uint64_t flood_total = 0;
  uint64_t flood_shed = 0;  ///< ResourceExhausted replies to the flooder
  uint64_t fair_total = 0;
  uint64_t fair_shed = 0;   ///< must stay 0: quotas isolate the flood
  double fair_p99_ms = 0.0;
  double flood_qps = 0.0;
};

/// One tenant's closed-loop connection for the fairness leg.
struct TenantClientResult {
  bool ok = false;
  uint64_t total = 0;
  uint64_t shed = 0;
  std::vector<double> latency_ms;
};

TenantClientResult RunTenantClient(uint16_t port, const std::string& tenant,
                                   size_t num_requests, size_t window,
                                   bool expensive, size_t num_keywords) {
  TenantClientResult result;
  const int fd = NetConnect(port);
  if (fd < 0) return result;
  if (!NetSendFrame(fd, EncodeHelloPayload(tenant))) {
    ::close(fd);
    return result;
  }
  std::deque<std::chrono::steady_clock::time_point> sent;
  FrameAssembler assembler("bench tenant " + tenant);
  std::vector<uint8_t> payload;
  bool failed = false;
  size_t received = 0;
  const auto settle_one = [&]() {
    if (!NetRecvFrame(fd, &assembler, &payload)) {
      failed = true;
      return;
    }
    result.latency_ms.push_back(ElapsedMs(sent.front()));
    sent.pop_front();
    StatusOr<ServeReply> reply =
        DecodeReplyPayload(payload.data(), payload.size(), "bench tenant");
    if (!reply.ok()) {
      failed = true;
      return;
    }
    if (reply->status.code() == StatusCode::kResourceExhausted) ++result.shed;
    ++received;
  };
  for (size_t r = 0; r < num_requests && !failed; ++r) {
    ServeRequest request;
    request.id = static_cast<uint64_t>(r) + 1;
    request.keyword = "kw" + std::to_string(Mix(r + 1) % num_keywords);
    if (expensive) {
      request.op = ServeOp::kRefit;
      request.values = RequestSeries(kFitTicks + 8, Mix(r + 7));
    } else {
      request.op = ServeOp::kForecast;
      request.horizon = kHorizon;
    }
    sent.push_back(std::chrono::steady_clock::now());
    if (!NetSendFrame(fd, EncodeRequestPayload(request))) {
      failed = true;
      break;
    }
    if (sent.size() >= window) settle_one();
  }
  while (!failed && received < num_requests) settle_one();
  ::shutdown(fd, SHUT_WR);
  ::close(fd);
  result.total = received;
  result.ok = !failed && received == num_requests;
  return result;
}

/// A flooding tenant pushes a deep window of expensive refits while two
/// fair tenants run shallow windows of cheap forecasts, all through one
/// quota-sliced engine. The quota must convert the flood into self-sheds:
/// the flooder loses requests, the fair tenants lose none, and fair p99
/// stays bounded by (quota x refit cost), not by the flood's backlog.
FairnessResult RunFairness(const std::string& spill_dir) {
  FairnessResult result;
  constexpr size_t kFairKeywords = 256;
  std::filesystem::remove_all(spill_dir);
  std::filesystem::create_directories(spill_dir);

  RegistryOptions roptions;
  roptions.num_shards = 8;
  roptions.max_resident_bytes = 1ull << 30;  // no eviction churn here
  roptions.spill_dir = spill_dir;
  ModelRegistry registry(roptions);
  for (size_t i = 0; i < kFairKeywords; ++i) {
    const Status put = registry.Put(MakeModel(i));
    if (!put.ok()) return result;
  }

  ServeOptions soptions;
  soptions.num_threads = 2;
  soptions.queue_cap = kQueueCap;
  soptions.max_batch = 16;
  soptions.tenant_quota = 8;  // the flood's slice of the queue
  soptions.fit.max_outer_rounds = 2;
  soptions.fit.max_shocks_per_keyword = 2;
  ServeEngine engine(&registry, soptions);

  NetServerOptions noptions;
  NetServer server(&engine, noptions);
  if (!server.Start().ok()) {
    engine.Stop();
    return result;
  }
  std::thread loop([&server]() { (void)server.Run(); });
  const uint16_t port = server.port();

  const auto flood_t0 = std::chrono::steady_clock::now();
  TenantClientResult flood;
  TenantClientResult fair_a;
  TenantClientResult fair_b;
  std::thread flood_thread([&]() {
    flood = RunTenantClient(port, "flood", 600, 256, /*expensive=*/true,
                            kFairKeywords);
  });
  std::thread fair_a_thread([&]() {
    fair_a = RunTenantClient(port, "fair-a", 400, 4, /*expensive=*/false,
                             kFairKeywords);
  });
  std::thread fair_b_thread([&]() {
    fair_b = RunTenantClient(port, "fair-b", 400, 4, /*expensive=*/false,
                             kFairKeywords);
  });
  flood_thread.join();
  const double flood_ms = ElapsedMs(flood_t0);
  fair_a_thread.join();
  fair_b_thread.join();
  server.Shutdown();
  loop.join();
  engine.Stop();

  if (!flood.ok || !fair_a.ok || !fair_b.ok) {
    std::fprintf(stderr, "fairness leg: a tenant client failed\n");
    return result;
  }
  result.flood_total = flood.total;
  result.flood_shed = flood.shed;
  result.fair_total = fair_a.total + fair_b.total;
  result.fair_shed = fair_a.shed + fair_b.shed;
  result.flood_qps = flood_ms > 0.0
                         ? static_cast<double>(flood.total) * 1000.0 / flood_ms
                         : 0.0;
  std::vector<double> fair_latency = fair_a.latency_ms;
  fair_latency.insert(fair_latency.end(), fair_b.latency_ms.begin(),
                      fair_b.latency_ms.end());
  result.fair_p99_ms = bench::Percentile(&fair_latency, 0.99);
  result.ok = true;
  return result;
}

#endif  // __linux__

void PrintRun(size_t threads, const RunResult& r) {
  std::printf(
      "%2zu thread%s  %9.0f req/s | p50 %7.3f ms p99 %7.3f ms | forecast "
      "p50 %7.3f p99 %7.3f | evict %7llu reload %7llu | crc %08x\n",
      threads, threads == 1 ? " " : "s", r.qps, r.p50_ms, r.p99_ms,
      r.forecast_p50_ms, r.forecast_p99_ms,
      static_cast<unsigned long long>(r.evictions),
      static_cast<unsigned long long>(r.reloads), r.reply_crc);
}

void AddRow(bench::BenchJson* json, size_t threads, const RunResult& r) {
  json->AddRow();
  json->SetRow("threads", static_cast<double>(threads));
  json->SetRow("qps", r.qps);
  json->SetRow("wall_ms", r.wall_ms);
  json->SetRow("prime_ms", r.prime_ms);
  json->SetRow("p50_ms", r.p50_ms);
  json->SetRow("p99_ms", r.p99_ms);
  json->SetRow("forecast_p50_ms", r.forecast_p50_ms);
  json->SetRow("forecast_p99_ms", r.forecast_p99_ms);
  json->SetRow("evictions", static_cast<double>(r.evictions));
  json->SetRow("reloads", static_cast<double>(r.reloads));
  json->SetRow("errors", static_cast<double>(r.errors));
}

int Main(int argc, char** argv) {
  size_t num_keywords = 100000;
  size_t num_requests = 20000;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto take_value = [&](size_t* out) {
      if (i + 1 >= argc) return false;
      auto parsed = ParseInt64Text(argv[++i]);
      if (!parsed.ok() || *parsed <= 0) return false;
      *out = static_cast<size_t>(*parsed);
      return true;
    };
    if (arg == "--keywords") {
      if (!take_value(&num_keywords)) {
        std::fprintf(stderr, "bench_serve: --keywords needs a positive int\n");
        return 1;
      }
    } else if (arg == "--requests") {
      if (!take_value(&num_requests)) {
        std::fprintf(stderr, "bench_serve: --requests needs a positive int\n");
        return 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_serve [--keywords N] [--requests N]\n");
      return 1;
    }
  }

  // Budget: a tenth of the full model set, so ~90% of keywords live only
  // as spill records and the workload constantly evicts and reloads.
  uint64_t total_bytes = 0;
  for (size_t i = 0; i < num_keywords; ++i) {
    total_bytes += MakeModel(i).ResidentBytes();
  }
  const uint64_t budget = std::max<uint64_t>(total_bytes / 10, 1);
  std::printf(
      "dspot_serve: %zu keywords (%.1f MiB of models, budget %.1f MiB), "
      "%zu mixed requests (~90%% forecast / 8%% outlier / 2%% refit), "
      "window %zu\n\n",
      num_keywords, static_cast<double>(total_bytes) / (1024.0 * 1024.0),
      static_cast<double>(budget) / (1024.0 * 1024.0), num_requests, kWindow);

  const std::string spill_dir = "bench_serve_spill";
  const size_t kThreads[] = {1, 8, 16};
  RunResult runs[3];
  for (size_t t = 0; t < 3; ++t) {
    runs[t] = RunServe(num_keywords, num_requests, kThreads[t], budget,
                       spill_dir);
    if (!runs[t].ok) return 1;
    PrintRun(kThreads[t], runs[t]);
  }
  std::filesystem::remove_all(spill_dir);

  const bool deterministic = runs[0].reply_crc == runs[1].reply_crc;
  const bool deterministic_16 = runs[0].reply_crc == runs[2].reply_crc;
  std::printf("\nreplies 1 vs 8 threads: %s; 1 vs 16 threads: %s\n",
              deterministic ? "bit-identical" : "DIVERGED",
              deterministic_16 ? "bit-identical" : "DIVERGED");

  bool net_ok = true;
  bool fairness_ok = true;
#ifdef __linux__
  // Loopback TCP leg: the same workload through NetServer at 8 threads;
  // replies must be byte-identical to the engine-direct runs.
  const NetRunResult net =
      RunServeNet(num_keywords, num_requests, 8, budget, spill_dir);
  if (!net.ok) return 1;
  const bool net_deterministic = net.reply_crc == runs[0].reply_crc;
  net_ok = net_deterministic;
  std::printf(
      "\ntcp loopback  %9.0f req/s | p50 %7.3f ms p99 %7.3f ms | crc %08x "
      "(%s vs engine-direct)\n",
      net.qps, net.p50_ms, net.p99_ms, net.reply_crc,
      net_deterministic ? "bit-identical" : "DIVERGED");

  // Fairness leg: a flooding tenant against quota slicing.
  const FairnessResult fair = RunFairness(spill_dir);
  if (!fair.ok) return 1;
  fairness_ok = fair.flood_shed > 0 && fair.fair_shed == 0 &&
                fair.fair_p99_ms < 500.0;
  std::printf(
      "tenant flood  flood %" PRIu64 "/%" PRIu64 " shed, fair %" PRIu64
      "/%" PRIu64 " shed, fair p99 %7.3f ms -> %s\n",
      fair.flood_shed, fair.flood_total, fair.fair_shed, fair.fair_total,
      fair.fair_p99_ms, fairness_ok ? "quota holds" : "QUOTA FAILED");
  std::filesystem::remove_all(spill_dir);
#endif

  bench::BenchJson json("serve");
  json.Set("num_keywords", static_cast<double>(num_keywords));
  json.Set("num_requests", static_cast<double>(num_requests));
  json.Set("model_bytes", static_cast<double>(total_bytes));
  json.Set("budget_bytes", static_cast<double>(budget));
  json.Set("qps", runs[1].qps);
  json.Set("p50_ms", runs[1].p50_ms);
  json.Set("p99_ms", runs[1].p99_ms);
  json.Set("forecast_p99_ms", runs[1].forecast_p99_ms);
  json.Set("evictions", static_cast<double>(runs[1].evictions));
  json.Set("reloads", static_cast<double>(runs[1].reloads));
  json.Set("threads", 8.0);
  json.Set("deterministic", deterministic ? 1.0 : 0.0);
  json.Set("deterministic_16", deterministic_16 ? 1.0 : 0.0);
#ifdef __linux__
  json.Set("net_supported", 1.0);
  json.Set("net_qps", net.qps);
  json.Set("net_p50_ms", net.p50_ms);
  json.Set("net_p99_ms", net.p99_ms);
  json.Set("net_deterministic", net_ok ? 1.0 : 0.0);
  json.Set("flood_total", static_cast<double>(fair.flood_total));
  json.Set("flood_shed", static_cast<double>(fair.flood_shed));
  json.Set("fair_total", static_cast<double>(fair.fair_total));
  json.Set("fair_shed", static_cast<double>(fair.fair_shed));
  json.Set("fair_p99_ms", fair.fair_p99_ms);
  json.Set("flood_qps", fair.flood_qps);
  json.Set("fairness_ok", fairness_ok ? 1.0 : 0.0);
#else
  json.Set("net_supported", 0.0);
#endif
  for (size_t t = 0; t < 3; ++t) {
    AddRow(&json, kThreads[t], runs[t]);
  }
  if (json.WriteTo("BENCH_serve.json")) {
    std::printf("wrote BENCH_serve.json\n");
  }
  return (deterministic && deterministic_16 && net_ok && fairness_ok) ? 0 : 1;
}

}  // namespace
}  // namespace dspot

int main(int argc, char** argv) { return dspot::Main(argc, argv); }
