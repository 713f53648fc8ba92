// CI-scale gates for the streaming and serving layers. Each CI job runs
// its own gates by ctest name:
//  * stream: after a 100,064-keyword tick stream, the engine state is
//    bit-identical at 1 and 8 threads, with the write-ahead log on, and
//    after recovery from that log;
//  * serve: 8,000 mixed requests over 20,000 models, under a registry
//    budget of a tenth of their bytes, get bit-identical replies at 1, 8
//    and 16 worker threads, and the budget forces spill reloads;
//  * serve-net (Linux only, so a build without the TCP transport has no
//    ServeNetGate entries at all): the same requests over TCP get the
//    engine-direct replies, and a flooding tenant sheds only itself while
//    the fair tenants' p99 stays under 500 ms.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "datagen/tick_stream.h"
#include "durable/durable_engine.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/serve_engine.h"
#include "snapshot/codec.h"
#include "stream/stream_engine.h"

#ifdef __linux__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "serve/net_server.h"
#endif

namespace dspot {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// stream

/// Flush cadence in ticks of stream time, like a periodic ingest batch.
constexpr int64_t kFlushEvery = 16;

StreamOptions GateStreamOptions(size_t threads) {
  StreamOptions options;
  options.num_threads = threads;
  options.ring_capacity = 128;
  options.min_fit_ticks = 32;
  options.refit_interval = 32;
  options.forecast_horizon = 16;
  return options;
}

DurableOptions GateDurableOptions() {
  DurableOptions options;
  options.stream = GateStreamOptions(1);
  options.fsync_policy = FsyncPolicy::kOnFlush;
  // No automatic checkpoints: the whole run stays in the WAL, so a
  // reopen replays all of it.
  options.checkpoint_every_flushes = 0;
  options.max_wal_bytes = 0;
  return options;
}

/// Drives the gate stream through `api` (a StreamEngine, or a
/// DurableEngine wrapping `engine`) and returns `engine`'s encoded state.
/// 64 hot keywords burst mid-stream; the 100k quiet keywords stop below
/// min_fit_ticks, so they stay on the append path.
template <typename Api>
StatusOr<std::vector<uint8_t>> DriveStream(Api& api,
                                           const StreamEngine& engine) {
  TickStreamConfig config;
  config.num_keywords = 100064;
  config.hot_keywords = 64;
  config.num_ticks = 96;
  config.quiet_ticks = 8;
  config.burst_start = 48;
  config.burst_width = 4;
  for (uint32_t i = 0; i < config.num_keywords; ++i) {
    DSPOT_RETURN_IF_ERROR(api.EnsureKeyword(TickStreamKeywordName(i)).status());
  }
  // Ticks are timestamps here: the config's origin is 0, resolution 1.
  Status status = Status::Ok();
  int64_t last_tick = -1;
  ForEachStreamTick(config, [&](const TickRecord& r) {
    if (!status.ok()) return;
    if (last_tick >= 0 && r.timestamp / kFlushEvery > last_tick / kFlushEvery) {
      status = api.Flush().status();
      if (!status.ok()) return;
    }
    last_tick = r.timestamp;
    status = api.AppendById(r.keyword, r.timestamp, r.count);
  });
  DSPOT_RETURN_IF_ERROR(status);
  DSPOT_RETURN_IF_ERROR(api.Flush().status());
  return engine.EncodeState();
}

StatusOr<std::vector<uint8_t>> RunStream(size_t threads) {
  StreamEngine engine(GateStreamOptions(threads));
  return DriveStream(engine, engine);
}

StatusOr<std::vector<uint8_t>> RunStreamWithWal(const std::string& dir) {
  DSPOT_ASSIGN_OR_RETURN(std::unique_ptr<DurableEngine> durable,
                         DurableEngine::Open(dir, GateDurableOptions()));
  return DriveStream(*durable, durable->engine());
}

// States are compared with EXPECT_TRUE(a == b): EXPECT_EQ would print
// megabytes of bytes on a failure.

TEST(StreamGate, StateIsBitIdenticalAtOneAndEightThreads) {
  const auto serial = RunStream(1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const auto parallel = RunStream(8);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_TRUE(*serial == *parallel)
      << "engine state diverged between 1 and 8 threads";
}

TEST(StreamGate, WalOnStateMatchesPlainRun) {
  const auto plain = RunStream(1);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  const std::string dir = FreshDir("stream_gate_wal_on");
  const auto wal = RunStreamWithWal(dir);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_TRUE(*plain == *wal)
      << "engine state diverged between the plain and the WAL-on run";
}

TEST(StreamGate, RecoveredStateMatchesWalRun) {
  const std::string dir = FreshDir("stream_gate_recovered");
  const auto wal = RunStreamWithWal(dir);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  auto recovered = DurableEngine::Open(dir, GateDurableOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT((*recovered)->recovery().replayed_appends, 0u);
  EXPECT_TRUE((*recovered)->engine().EncodeState() == *wal)
      << "the state recovered from the WAL diverged from the run that "
         "wrote it";
  recovered->reset();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// serve

constexpr size_t kServeKeywords = 20000;
constexpr size_t kServeRequests = 8000;
/// In-flight window of the closed-loop clients. It stays far below
/// kQueueCap: replies are deterministic only while admission never sheds.
constexpr size_t kWindow = 256;
constexpr size_t kQueueCap = 4096;
constexpr uint64_t kFitTicks = 64;
constexpr uint64_t kHorizon = 8;

/// splitmix64: cheap, deterministic request-stream randomness.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A synthetic fitted model for keyword index `i`: the gates exercise
/// serving, not fitting.
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

/// A deterministic activity series for refit and outlier requests.
std::vector<double> RequestSeries(size_t n, uint64_t salt) {
  const double phase = static_cast<double>(salt % 628) / 100.0;
  std::vector<double> values(n);
  for (size_t t = 0; t < n; ++t) {
    values[t] = 30.0 + 8.0 * std::sin(0.9 * static_cast<double>(t) + phase);
  }
  return values;
}

/// The gate workload: about 90% forecasts, 8% outlier scores and 2% warm
/// refits over all kServeKeywords models.
std::vector<ServeRequest> GateRequests() {
  std::vector<ServeRequest> requests(kServeRequests);
  for (size_t r = 0; r < kServeRequests; ++r) {
    const uint64_t h = Mix(r + 1);
    ServeRequest& request = requests[r];
    request.id = r + 1;
    request.keyword = "kw" + std::to_string(h % kServeKeywords);
    const uint64_t roll = Mix(h) % 100;
    if (roll < 90) {
      request.op = ServeOp::kForecast;
      request.horizon = kHorizon;
    } else if (roll < 98) {
      request.op = ServeOp::kOutlierScore;
      request.values = RequestSeries(32, h);
    } else {
      request.op = ServeOp::kRefit;
      // More ticks than the stored fit, so the refit warm-starts.
      request.values = RequestSeries(kFitTicks + 8, h);
    }
  }
  return requests;
}

Status Prime(ModelRegistry* registry, size_t keywords) {
  for (size_t i = 0; i < keywords; ++i) {
    DSPOT_RETURN_IF_ERROR(registry->Put(MakeModel(i)));
  }
  return Status::Ok();
}

/// A registry budget of a tenth of all models' bytes: about 90% of the
/// keywords live only in the spill log, so requests keep evicting and
/// reloading.
RegistryOptions SpillRegistryOptions(const std::string& name) {
  uint64_t total_bytes = 0;
  for (size_t i = 0; i < kServeKeywords; ++i) {
    total_bytes += MakeModel(i).ResidentBytes();
  }
  RegistryOptions options;
  options.num_shards = 16;
  options.max_resident_bytes = std::max<uint64_t>(total_bytes / 10, 1);
  options.spill_dir = FreshDir(name);
  return options;
}

ServeOptions GateServeOptions(size_t threads) {
  ServeOptions options;
  options.num_threads = threads;
  options.queue_cap = kQueueCap;
  options.max_batch = 64;
  // A trimmed search keeps each refit to milliseconds.
  options.fit.max_outer_rounds = 2;
  options.fit.max_shocks_per_keyword = 2;
  return options;
}

struct ServeRun {
  uint32_t reply_crc = 0;  ///< CRC-32 of the reply payloads in request order
  uint64_t reloads = 0;    ///< registry reloads while serving
};

/// Serves GateRequests() through the engine directly, as a closed-loop
/// client with kWindow requests in flight. A non-OK reply fails the run.
StatusOr<ServeRun> RunEngineDirect(size_t threads, const std::string& name) {
  ModelRegistry registry(SpillRegistryOptions(name));
  DSPOT_RETURN_IF_ERROR(Prime(&registry, kServeKeywords));
  const uint64_t primed_reloads = registry.stats().reloads;
  ServeEngine engine(&registry, GateServeOptions(threads));
  std::deque<std::future<ServeReply>> window;
  std::vector<uint8_t> replies;
  Status failed = Status::Ok();
  const auto settle = [&] {
    const ServeReply reply = window.front().get();
    window.pop_front();
    if (!reply.status.ok() && failed.ok()) {
      failed = Status::Internal("request " + std::to_string(reply.id) +
                                ": " + reply.status.ToString());
    }
    const std::vector<uint8_t> payload = EncodeReplyPayload(reply);
    replies.insert(replies.end(), payload.begin(), payload.end());
  };
  for (ServeRequest& request : GateRequests()) {
    window.push_back(engine.Submit(std::move(request)));
    if (window.size() >= kWindow) settle();
  }
  while (!window.empty()) settle();
  engine.Stop();
  DSPOT_RETURN_IF_ERROR(failed);
  ServeRun run;
  run.reply_crc = Crc32(replies.data(), replies.size());
  run.reloads = registry.stats().reloads - primed_reloads;
  return run;
}

TEST(ServeGate, RepliesAreBitIdenticalAtOneAndEightThreads) {
  const auto serial = RunEngineDirect(1, "serve_gate_1v8_serial");
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const auto parallel = RunEngineDirect(8, "serve_gate_1v8_parallel");
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(serial->reply_crc, parallel->reply_crc);
}

TEST(ServeGate, RepliesAreBitIdenticalAtOneAndSixteenThreads) {
  const auto serial = RunEngineDirect(1, "serve_gate_1v16_serial");
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const auto parallel = RunEngineDirect(16, "serve_gate_1v16_parallel");
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(serial->reply_crc, parallel->reply_crc);
}

TEST(ServeGate, BudgetForcesSpillReloads) {
  const auto run = RunEngineDirect(8, "serve_gate_reloads");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->reloads, 0u) << "the registry budget never evicted";
}

// ---------------------------------------------------------------------------
// serve-net

#ifdef __linux__

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool SendAll(int fd, const uint8_t* p, size_t n) {
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

/// One frame: LE u32 length + payload.
bool SendFrame(int fd, const std::vector<uint8_t>& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint8_t prefix[4] = {static_cast<uint8_t>(len & 0xFF),
                             static_cast<uint8_t>((len >> 8) & 0xFF),
                             static_cast<uint8_t>((len >> 16) & 0xFF),
                             static_cast<uint8_t>((len >> 24) & 0xFF)};
  return SendAll(fd, prefix, sizeof(prefix)) &&
         SendAll(fd, payload.data(), payload.size());
}

/// Blocks for one frame payload; false on EOF, error or desync.
bool RecvFrame(int fd, FrameAssembler* assembler,
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

int Connect(uint16_t port) {
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

/// An engine behind a NetServer on an ephemeral loopback port, torn down
/// in the contract order: Shutdown, join Run, then Stop the engine.
struct NetHarness {
  NetHarness(ModelRegistry* registry, const ServeOptions& options)
      : engine(registry, options), server(&engine, NetServerOptions()) {
    started = server.Start();
    if (started.ok()) {
      loop = std::thread([this] { (void)server.Run(); });
    }
  }
  NetHarness(const NetHarness&) = delete;
  NetHarness& operator=(const NetHarness&) = delete;
  ~NetHarness() {
    if (loop.joinable()) {
      server.Shutdown();
      loop.join();
    }
    engine.Stop();
  }

  ServeEngine engine;
  NetServer server;
  Status started = Status::Ok();
  std::thread loop;
};

struct ClientRun {
  bool ok = false;                 ///< every request got a reply
  std::vector<uint8_t> replies;    ///< reply payloads in arrival order
  uint64_t errors = 0;             ///< non-OK replies
  uint64_t shed = 0;               ///< ResourceExhausted replies
  std::vector<double> latency_ms;  ///< send to reply, per request
};

/// One pipelined connection with at most `window` requests in flight,
/// after a tenant handshake when `tenant` is not empty.
ClientRun RunClient(uint16_t port, const std::string& tenant,
                    const std::vector<ServeRequest>& requests,
                    size_t window) {
  ClientRun run;
  const int fd = Connect(port);
  if (fd < 0) return run;
  if (!tenant.empty() && !SendFrame(fd, EncodeHelloPayload(tenant))) {
    ::close(fd);
    return run;
  }
  std::deque<std::chrono::steady_clock::time_point> sent;
  FrameAssembler assembler("gate client");
  std::vector<uint8_t> payload;
  bool failed = false;
  const auto settle = [&] {
    if (!RecvFrame(fd, &assembler, &payload)) {
      failed = true;
      return;
    }
    run.latency_ms.push_back(MsSince(sent.front()));
    sent.pop_front();
    StatusOr<ServeReply> reply =
        DecodeReplyPayload(payload.data(), payload.size(), "gate client");
    if (!reply.ok()) {
      failed = true;
      return;
    }
    if (!reply->status.ok()) ++run.errors;
    if (reply->status.code() == StatusCode::kResourceExhausted) ++run.shed;
    run.replies.insert(run.replies.end(), payload.begin(), payload.end());
  };
  for (const ServeRequest& request : requests) {
    sent.push_back(std::chrono::steady_clock::now());
    if (!SendFrame(fd, EncodeRequestPayload(request))) {
      failed = true;
      break;
    }
    if (sent.size() >= window) settle();
    if (failed) break;
  }
  while (!failed && !sent.empty()) settle();
  ::shutdown(fd, SHUT_WR);
  ::close(fd);
  run.ok = !failed && run.latency_ms.size() == requests.size();
  return run;
}

// The transport restores request order, so the arrival-order CRC of the
// TCP replies is directly comparable with the engine-direct one.
TEST(ServeNetGate, TcpRepliesMatchEngineDirect) {
  const auto direct = RunEngineDirect(1, "serve_net_gate_direct");
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ModelRegistry registry(SpillRegistryOptions("serve_net_gate_tcp"));
  ASSERT_TRUE(Prime(&registry, kServeKeywords).ok());
  NetHarness net(&registry, GateServeOptions(8));
  ASSERT_TRUE(net.started.ok()) << net.started.ToString();
  const ClientRun tcp =
      RunClient(net.server.port(), "", GateRequests(), kWindow);
  ASSERT_TRUE(tcp.ok) << "the TCP client lost its connection";
  EXPECT_EQ(tcp.errors, 0u);
  EXPECT_EQ(Crc32(tcp.replies.data(), tcp.replies.size()),
            direct->reply_crc);
}

/// `n` requests of one tenant: warm refits (expensive) or forecasts.
std::vector<ServeRequest> TenantRequests(size_t n, bool refits,
                                         size_t keywords) {
  std::vector<ServeRequest> requests(n);
  for (size_t r = 0; r < n; ++r) {
    ServeRequest& request = requests[r];
    request.id = r + 1;
    request.keyword = "kw" + std::to_string(Mix(r + 1) % keywords);
    if (refits) {
      request.op = ServeOp::kRefit;
      request.values = RequestSeries(kFitTicks + 8, Mix(r + 7));
    } else {
      request.op = ServeOp::kForecast;
      request.horizon = kHorizon;
    }
  }
  return requests;
}

// A flooding tenant keeps 256 refits in flight while two fair tenants keep
// 4 forecasts each, through one engine with a tenant quota of 8. The quota
// turns the flood into self-sheds: the flooder loses requests, the fair
// tenants lose none, and their p99 is bounded by the quota times the
// refit cost, not by the flood's backlog. The p99 bound is wall time, so
// this entry runs with no concurrent ctest entries.
TEST(ServeNetGate, FloodingTenantShedsOnlyItself) {
  constexpr size_t kKeywords = 256;
  RegistryOptions registry_options;
  registry_options.num_shards = 8;
  registry_options.max_resident_bytes = 1ull << 30;  // no eviction here
  registry_options.spill_dir = FreshDir("serve_net_gate_fairness");
  ModelRegistry registry(registry_options);
  ASSERT_TRUE(Prime(&registry, kKeywords).ok());
  ServeOptions options = GateServeOptions(2);
  options.max_batch = 16;
  options.tenant_quota = 8;
  NetHarness net(&registry, options);
  ASSERT_TRUE(net.started.ok()) << net.started.ToString();

  const uint16_t port = net.server.port();
  ClientRun flood;
  ClientRun fair_a;
  ClientRun fair_b;
  std::thread flood_thread([&] {
    flood = RunClient(port, "flood",
                      TenantRequests(600, /*refits=*/true, kKeywords), 256);
  });
  std::thread fair_a_thread([&] {
    fair_a = RunClient(port, "fair-a",
                       TenantRequests(400, /*refits=*/false, kKeywords), 4);
  });
  std::thread fair_b_thread([&] {
    fair_b = RunClient(port, "fair-b",
                       TenantRequests(400, /*refits=*/false, kKeywords), 4);
  });
  flood_thread.join();
  fair_a_thread.join();
  fair_b_thread.join();
  ASSERT_TRUE(flood.ok && fair_a.ok && fair_b.ok)
      << "a tenant client lost its connection";

  EXPECT_GT(flood.shed, 0u) << "the tenant quota never bit";
  EXPECT_EQ(fair_a.shed + fair_b.shed, 0u) << "the flood shed a fair tenant";
  std::vector<double> fair = fair_a.latency_ms;
  fair.insert(fair.end(), fair_b.latency_ms.begin(), fair_b.latency_ms.end());
  std::sort(fair.begin(), fair.end());
  const double p99 = fair[(fair.size() * 99 + 99) / 100 - 1];  // nearest rank
  EXPECT_LT(p99, 500.0) << "fair tenants' p99 in ms";
}

#endif  // __linux__

}  // namespace
}  // namespace dspot
