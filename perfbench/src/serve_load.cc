// serve_spill and serve_resident: an in-process NetServer over loopback
// TCP, driven open loop by one client thread that sends each request when
// it is due and times it from that instant.
//
//  * serve_spill: many 64-tick models under a registry budget of a tenth
//    of their bytes, ~90/8/2 forecast/outlier/refit, so registry misses
//    and spill reloads dominate.
//  * serve_resident: fewer models with long fitted histories, all
//    resident with no spill directory, and a larger refit share, so
//    forecast simulation and waits behind refits dominate.
//
// End-to-end metrics: latency_ms is the client-observed median at the
// workload's fixed offered rate, for the whole run; throughput_per_s is
// capacity_rps, the median completion rate of a few fixed batches of
// further requests, each offered at once so the engine never waits for
// work. (A ladder of offered rates judged by p99 was tried first: a rung's
// p99 was decided by the few refits it happened to contain and was not
// even monotone in the rate, so its capacity flipped from run to run.)

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "quantile.h"
#include "serve/model_registry.h"
#include "serve/net_server.h"
#include "serve/protocol.h"
#include "serve/serve_engine.h"
#include "snapshot/codec.h"

namespace perfbench {
namespace {

struct ServeShape {
  const char* name = "";
  size_t keywords = 0;
  uint64_t fit_ticks = 64;
  uint64_t forecast_pct = 90;
  uint64_t outlier_pct = 8;  // the rest are refits
  /// Registry budget as a fraction of the primed model bytes (>= 1: all
  /// models stay resident, with no spill directory).
  double budget_fraction = 0.1;
  /// Offered rate of the measured phase, requests/s.
  double fixed_rps = 1000.0;
  /// Requests offered at once to measure the sustained completion rate.
  /// When each of the kSaturationRounds batches is a whole number of
  /// refit variant cycles (block × kVariants / refits per block requests),
  /// every batch carries the same refits.
  size_t saturation_requests = 2000;
  /// Registry primings in set-up (the median is setup_s).
  int setup_reps = 5;
};

constexpr uint64_t kHorizon = 8;
/// Engine workers. With two, which requests shared a batch, and so which
/// refits ran side by side, depended on arrival timing, and the saturation
/// throughput of identical work varied by 40% from run to run.
constexpr size_t kEngineThreads = 1;

/// How late the generator may run (p99 of send time minus due time)
/// before a run is invalid rather than slow.
constexpr double kLateBoundMs = 10.0;

/// Models and refit series come in kVariants kinds by keyword index. A
/// warm refit's cost depends on its model and data, and varies by an order
/// of magnitude across random ones; with a few fixed kinds, a run's cost
/// depends on its request mix, not on which refits it happened to draw.
/// Likewise each refit goes to a model of its own, primed beside the
/// `keywords` models that forecasts and outlier scores read: a second
/// refit of a keyword warm-starts from the first one's result and costs
/// far less, so refits over a shared pool made a run's cost depend on how
/// often its seed happened to repeat a keyword.
constexpr size_t kVariants = 8;

dspot::ServedModel MakeModel(const ServeShape& shape, size_t i) {
  const uint64_t h = Mix(i % kVariants);
  const double u = static_cast<double>(i % kVariants) / kVariants;
  dspot::ServedModel model;
  model.keyword = "kw" + std::to_string(i);
  model.params.population = 800.0 + 400.0 * u;
  model.params.beta = 0.15 + 0.1 * u;
  model.params.delta = 0.11;
  model.params.gamma = 0.07;
  model.params.i0 = 2.0;
  model.params.growth_rate = 0.4 + 0.3 * u;
  model.params.growth_start = shape.fit_ticks / 3 + (h >> 20) % 16;
  dspot::Shock shock;
  shock.keyword = 0;
  shock.period = shape.fit_ticks > 104 ? 52 : 7 + (h >> 8) % 5;
  shock.start = 3 + (h >> 12) % 4;
  shock.width = 2;
  shock.base_strength = 1.2 + u;
  shock.global_strengths.assign(shock.NumOccurrences(shape.fit_ticks), 1.5);
  model.shocks.push_back(shock);
  model.fit_ticks = shape.fit_ticks;
  model.rmse = 2.5 + u;
  model.cost_bits = 700.0 + 100.0 * u;
  return model;
}

/// Activity series for refit/outlier requests (as bench_serve sends), by
/// keyword index.
std::vector<double> RequestSeries(size_t n, size_t keyword) {
  const double phase = 6.28 * static_cast<double>(keyword % kVariants) /
                       kVariants;
  std::vector<double> values(n);
  for (size_t t = 0; t < n; ++t) {
    values[t] = 30.0 + 8.0 * std::sin(0.9 * static_cast<double>(t) + phase);
  }
  return values;
}

/// The op mix is exact per block of consecutive requests: the smallest
/// block in which every op's share is a whole number of requests (20 for
/// 85/10/5). A seeded shuffle places the ops within each block, so any
/// stretch of requests carries the workload's mix to within one request
/// per op, and a saturation batch's cost does not hang on how many refits
/// its seed happened to put in it.
struct OpMix {
  size_t block = 1;
  size_t refits = 0;    // per block
  size_t outliers = 0;  // per block
};

OpMix BlockMix(const ServeShape& shape) {
  const uint64_t refit_pct = 100 - shape.forecast_pct - shape.outlier_pct;
  const uint64_t unit =
      std::gcd(std::gcd(shape.forecast_pct, shape.outlier_pct),
               std::gcd(refit_pct, uint64_t{100}));
  OpMix mix;
  mix.block = static_cast<size_t>(100 / unit);
  mix.refits = static_cast<size_t>(refit_pct / unit);
  mix.outliers = static_cast<size_t>(shape.outlier_pct / unit);
  return mix;
}

/// Refits among the first n requests, and so the refit models to prime.
size_t RefitTargets(const ServeShape& shape, size_t n) {
  const OpMix mix = BlockMix(shape);
  return (n + mix.block - 1) / mix.block * mix.refits;
}

/// The r-th request of the workload: a pure function of (seed, r).
dspot::ServeRequest MakeRequest(const ServeShape& shape, uint64_t seed,
                                size_t r) {
  const OpMix mix = BlockMix(shape);
  const size_t block = r / mix.block;
  std::vector<size_t> order(mix.block);
  std::iota(order.begin(), order.end(), size_t{0});
  uint64_t s = Mix(Mix(seed) + block);
  for (size_t i = mix.block; i > 1; --i) {
    s = Mix(s);
    std::swap(order[i - 1], order[s % i]);
  }
  const size_t slot = order[r % mix.block];

  const uint64_t h = Mix(Mix(seed) + r);
  dspot::ServeRequest request;
  request.id = static_cast<uint64_t>(r) + 1;
  size_t keyword = h % shape.keywords;
  if (slot < mix.refits) {
    // The block's slot-th refit, on its own model; consecutive refits
    // cycle through the variants.
    keyword = shape.keywords + block * mix.refits + slot;
    request.op = dspot::ServeOp::kRefit;
    // More ticks than the stored fit, so the refit warm-starts.
    request.values = RequestSeries(shape.fit_ticks + 8, keyword);
  } else if (slot < mix.refits + mix.outliers) {
    request.op = dspot::ServeOp::kOutlierScore;
    request.values = RequestSeries(32, keyword);
  } else {
    request.op = dspot::ServeOp::kForecast;
    request.horizon = kHorizon;
  }
  request.keyword = "kw" + std::to_string(keyword);
  return request;
}

/// A registry primed with models [0, models), over its own spill directory
/// when the budget does not hold every model. When it does, nothing would
/// be reloaded and there is no spill directory: write-through of every Put
/// made priming time follow the host's disk (3-8x from run to run on a
/// discard-mounted ext4), not the program.
struct Primed {
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<dspot::ModelRegistry> registry;
  dspot::RegistryStats after_prime;
};

std::unique_ptr<Primed> Prime(const ServeShape& shape,
                              const std::string& parent, uint64_t budget,
                              size_t models) {
  auto primed = std::make_unique<Primed>();
  dspot::RegistryOptions options;
  options.num_shards = 16;
  options.max_resident_bytes = budget;
  if (shape.budget_fraction < 1.0) {
    primed->dir = std::make_unique<ScratchDir>(parent, "spill");
    if (!primed->dir->ok()) return nullptr;
    options.spill_dir = primed->dir->path();
  }
  primed->registry = std::make_unique<dspot::ModelRegistry>(options);
  for (size_t i = 0; i < models; ++i) {
    const dspot::Status put = primed->registry->Put(MakeModel(shape, i));
    if (!put.ok()) {
      std::fprintf(stderr, "perfbench: prime: %s\n", put.ToString().c_str());
      return nullptr;
    }
  }
  primed->after_prime = primed->registry->stats();
  return primed;
}

dspot::ServeOptions EngineOptions() {
  dspot::ServeOptions options;
  options.num_threads = kEngineThreads;
  // Never shed: determinism needs an admission queue that cannot
  // overflow, and above capacity the backlog must show as latency.
  options.queue_cap = 1u << 22;
  options.max_batch = 64;
  options.fit.max_outer_rounds = 2;
  options.fit.max_shocks_per_keyword = 2;
  return options;
}

/// Engine plus TCP server over a primed registry; stops in the order the
/// server's lifetime contract requires.
class ServeStack {
 public:
  explicit ServeStack(dspot::ModelRegistry* registry)
      : engine_(registry, EngineOptions()),
        server_(&engine_, dspot::NetServerOptions()) {}
  ~ServeStack() { Stop(); }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  dspot::Status Start() {
    DSPOT_RETURN_IF_ERROR(server_.Start());
    loop_ = std::thread([this] { (void)server_.Run(); });
    return dspot::Status::Ok();
  }
  void Stop() {
    if (loop_.joinable()) {
      server_.Shutdown();
      loop_.join();
    }
    engine_.Stop();
  }
  uint16_t port() const { return server_.port(); }
  dspot::ServeEngine& engine() { return engine_; }

 private:
  dspot::ServeEngine engine_;
  dspot::NetServer server_;
  std::thread loop_;
};

/// CPU placement, with nproc >= 4: the load generator runs on the last
/// CPU, so it neither delays nor is delayed by the system it measures.
/// Server threads (event loop, dispatcher, workers) inherit the mask of the
/// thread that creates them. For the fixed-rate phase they share the first
/// CPU, so a hand-off between them does not wait for an idle virtual CPU to
/// wake (which made the median latency vary by a third from run to run);
/// for the saturation phase they get every CPU but the client's.
class CpuPlan {
 public:
  CpuPlan() {
    const unsigned n = std::thread::hardware_concurrency();
    if (n < 4) return;
    CPU_ZERO(&latency_);
    CPU_ZERO(&throughput_);
    CPU_ZERO(&client_);
    CPU_SET(0, &latency_);
    for (unsigned c = 0; c + 1 < n; ++c) CPU_SET(c, &throughput_);
    CPU_SET(n - 1, &client_);
    active_ = true;
  }
  /// Pins the calling thread, and so the server threads it creates.
  void LatencyServer() const { Pin(latency_); }
  void ThroughputServer() const { Pin(throughput_); }
  void Client() const { Pin(client_); }

 private:
  void Pin(const cpu_set_t& set) const {
    if (active_) pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
  bool active_ = false;
  cpu_set_t latency_{};
  cpu_set_t throughput_{};
  cpu_set_t client_{};
};

/// Runs the caller on the client CPU for its scope, then restores its mask.
class ClientScope {
 public:
  explicit ClientScope(const CpuPlan& cpus) {
    saved_ = pthread_getaffinity_np(pthread_self(), sizeof(mask_), &mask_) == 0;
    cpus.Client();
  }
  ~ClientScope() {
    if (saved_) pthread_setaffinity_np(pthread_self(), sizeof(mask_), &mask_);
  }
  ClientScope(const ClientScope&) = delete;
  ClientScope& operator=(const ClientScope&) = delete;

 private:
  cpu_set_t mask_{};
  bool saved_ = false;
};

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
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

std::vector<uint8_t> Frame(const std::vector<uint8_t>& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::vector<uint8_t> frame = {
      static_cast<uint8_t>(len & 0xFF), static_cast<uint8_t>((len >> 8) & 0xFF),
      static_cast<uint8_t>((len >> 16) & 0xFF),
      static_cast<uint8_t>((len >> 24) & 0xFF)};
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

struct LoadOutcome {
  bool transport_ok = false;
  size_t attempted = 0;
  size_t failed = 0;  // non-OK replies (a shed reply is non-OK)
  std::vector<double> latency_ms;  // from due time, request order
  std::vector<double> late_ms;     // send time minus due time
  std::vector<uint8_t> replies;    // reply payloads in id order
  uint32_t crc = 0;
};

/// Sends frames[begin, end) at `rps` over one fresh connection, open loop,
/// and waits for every reply.
LoadOutcome OpenLoopTcp(const CpuPlan& cpus, uint16_t port,
                        const std::vector<std::vector<uint8_t>>& frames,
                        size_t begin, size_t end, double rps, bool keep) {
  const ClientScope on_client_cpu(cpus);
  LoadOutcome out;
  const size_t n = end - begin;
  out.attempted = n;
  const int fd = Connect(port);
  if (fd < 0) {
    std::fprintf(stderr, "perfbench: connect: %s\n", std::strerror(errno));
    return out;
  }
  out.latency_ms.assign(n, 0.0);
  out.late_ms.assign(n, 0.0);
  dspot::FrameAssembler assembler("perfbench client");
  std::vector<uint8_t> outbuf;
  size_t out_pos = 0;
  std::vector<uint8_t> payload;
  uint8_t chunk[65536];
  const double period_s = 1.0 / rps;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) *
                                                  period_s));
  };
  const double give_up_s = static_cast<double>(n) * period_s + 120.0;
  size_t next = 0;
  size_t received = 0;
  bool broken = false;
  while (received < n && !broken) {
    Clock::time_point now = Clock::now();
    while (next < n && due(next) <= now) {
      const std::vector<uint8_t>& f = frames[begin + next];
      outbuf.insert(outbuf.end(), f.begin(), f.end());
      out.late_ms[next] =
          std::chrono::duration<double, std::milli>(now - due(next)).count();
      ++next;
    }
    while (out_pos < outbuf.size()) {
      const ssize_t w = ::send(fd, outbuf.data() + out_pos,
                               outbuf.size() - out_pos, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) broken = true;
        break;
      }
      out_pos += static_cast<size_t>(w);
    }
    if (out_pos == outbuf.size()) {
      outbuf.clear();
      out_pos = 0;
    }
    for (;;) {
      const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) broken = true;
        break;
      }
      if (r == 0) {
        broken = true;
        break;
      }
      assembler.Append(chunk, static_cast<size_t>(r));
      const Clock::time_point at = Clock::now();
      for (;;) {
        dspot::StatusOr<bool> have = assembler.Next(&payload);
        if (!have.ok()) {
          broken = true;
          break;
        }
        if (!*have) break;
        if (received >= n) {
          broken = true;
          break;
        }
        out.latency_ms[received] =
            std::chrono::duration<double, std::milli>(at - due(received))
                .count();
        dspot::StatusOr<dspot::ServeReply> reply = dspot::DecodeReplyPayload(
            payload.data(), payload.size(), "perfbench client");
        if (!reply.ok() || !reply->status.ok() ||
            reply->id != static_cast<uint64_t>(begin + received) + 1) {
          ++out.failed;
        }
        if (keep) {
          out.replies.insert(out.replies.end(), payload.begin(),
                             payload.end());
        }
        ++received;
      }
    }
    // No sleep: the client spins on its own CPU. Waking a sleeping client
    // for a due send or a reply took a host-dependent time that the
    // latency, timed from the due instant, counted in full.
    if (SecondsSince(t0) > give_up_s) broken = true;
  }
  ::close(fd);
  out.failed += n - received;
  out.transport_ok = !broken && received == n;
  if (keep) out.crc = dspot::Crc32(out.replies.data(), out.replies.size());
  return out;
}

/// The same schedule through ServeEngine::SubmitWithCallback, no socket.
LoadOutcome OpenLoopEngine(const CpuPlan& cpus, dspot::ServeEngine* engine,
                           const std::vector<dspot::ServeRequest>& requests,
                           size_t n, double rps,
                           std::vector<dspot::ServeReply>* replies) {
  const ClientScope on_client_cpu(cpus);
  LoadOutcome out;
  out.attempted = n;
  out.latency_ms.assign(n, 0.0);
  out.late_ms.assign(n, 0.0);
  replies->assign(n, dspot::ServeReply());
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
  const double period_s = 1.0 / rps;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) *
                                                  period_s));
  };
  for (size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(due(i));
    out.late_ms[i] =
        std::chrono::duration<double, std::milli>(Clock::now() - due(i))
            .count();
    engine->SubmitWithCallback(
        requests[i], [&, i](dspot::ServeReply reply) {
          const double ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - due(i))
                                .count();
          std::lock_guard<std::mutex> lock(mu);
          out.latency_ms[i] = ms;
          (*replies)[i] = std::move(reply);
          ++done;
          cv.notify_one();
        });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == n; });
  for (const dspot::ServeReply& reply : *replies) {
    if (!reply.status.ok()) ++out.failed;
    const std::vector<uint8_t> payload = dspot::EncodeReplyPayload(reply);
    out.replies.insert(out.replies.end(), payload.begin(), payload.end());
  }
  out.crc = dspot::Crc32(out.replies.data(), out.replies.size());
  out.transport_ok = true;
  return out;
}

/// Offers frames[begin, end) in kSaturationRounds batches, each all at
/// once so the admission queue never runs dry, and returns the median
/// completion rate of a batch: its requests over the time from its first
/// send to its last reply. The median keeps a host slow-down during one
/// batch out of the figure.
constexpr size_t kSaturationRounds = 7;

double Saturate(const CpuPlan& cpus, uint16_t port,
                const std::vector<std::vector<uint8_t>>& frames, size_t begin,
                size_t end, Result* result) {
  std::vector<double> rates;
  bool ok = true;
  const size_t per_round = (end - begin) / kSaturationRounds;
  for (size_t r = 0; r < kSaturationRounds; ++r) {
    const size_t from = begin + r * per_round;
    const LoadOutcome o = OpenLoopTcp(cpus, port, frames, from,
                                      from + per_round, /*rps=*/1e9,
                                      /*keep=*/false);
    result->Attempt(o.attempted, o.failed);
    ok = ok && o.transport_ok && o.failed == 0;
    const double last_ms =
        *std::max_element(o.latency_ms.begin(), o.latency_ms.end());
    rates.push_back(static_cast<double>(per_round) * 1e3 / last_ms);
  }
  std::string line = "saturation batch rates (1/s):";
  for (const double rate : rates) line += " " + std::to_string(rate);
  result->Note(line);
  result->Gate(ok, "every saturation request got an OK reply over TCP");
  return Median(rates);
}

double MeanMs(const dspot::ObsSnapshot& snap, const char* name) {
  const uint64_t n = snap.HistogramCount(name);
  return n > 0 ? HistogramSumMs(snap, name) / static_cast<double>(n) : 0.0;
}

void RunServe(const ServeShape& shape, const Args& args, Result* result) {
  char line[200];
  std::snprintf(line, sizeof(line),
                "%zu models of %llu ticks, budget %.2f of their bytes, "
                "%llu/%llu/%llu forecast/outlier/refit, fixed %.0f req/s, "
                "%zu engine threads + 1 client thread",
                shape.keywords,
                static_cast<unsigned long long>(shape.fit_ticks),
                shape.budget_fraction,
                static_cast<unsigned long long>(shape.forecast_pct),
                static_cast<unsigned long long>(shape.outlier_pct),
                static_cast<unsigned long long>(100 - shape.forecast_pct -
                                                shape.outlier_pct),
                shape.fixed_rps, kEngineThreads);
  result->Note(line);
  result->SetThreads("engine=" + std::to_string(kEngineThreads) +
                     " client=1 net_loop=1");
  const CpuPlan cpus;
  cpus.LatencyServer();
  ScratchDir scratch(args.work_dir, shape.name);
  if (!scratch.ok()) {
    result->Gate(false, "scratch directory");
    return;
  }

  // The fixed-rate phase fills the run's seconds, the saturation phase
  // follows. Both start on a block boundary of the op mix.
  const size_t block = BlockMix(shape).block;
  const size_t n_fixed =
      (std::max<size_t>(200, static_cast<size_t>(shape.fixed_rps *
                                                 args.seconds)) +
       block - 1) /
      block * block;
  const size_t n_total = n_fixed + shape.saturation_requests;
  const size_t n_models = shape.keywords + RefitTargets(shape, n_total);
  uint64_t model_bytes = 0;
  for (size_t i = 0; i < n_models; ++i) {
    model_bytes += MakeModel(shape, i).ResidentBytes();
  }
  const uint64_t budget = shape.budget_fraction >= 1.0
                              ? model_bytes * 4
                              : std::max<uint64_t>(static_cast<uint64_t>(
                                                       model_bytes *
                                                       shape.budget_fraction),
                                                   1);

  // Set-up: registry priming (every model spilled into a fresh spill
  // directory) and the request schedule, encoded once. Done several
  // times; the median is setup_s and the last one serves.
  std::vector<double> setup_s;
  std::unique_ptr<Primed> primed;
  std::vector<dspot::ServeRequest> requests;
  std::vector<std::vector<uint8_t>> frames;
  for (int rep = 0; rep < shape.setup_reps; ++rep) {
    primed.reset();
    requests.clear();
    frames.clear();
    SyncFilesystem(scratch.path());
    const Clock::time_point t0 = Clock::now();
    primed = Prime(shape, scratch.path(), budget, n_models);
    if (!primed) {
      result->Gate(false, "registry priming");
      return;
    }
    requests.reserve(n_fixed);
    frames.reserve(n_total);
    for (size_t r = 0; r < n_total; ++r) {
      dspot::ServeRequest request = MakeRequest(shape, args.seed, r);
      frames.push_back(Frame(dspot::EncodeRequestPayload(request)));
      if (r < n_fixed) requests.push_back(std::move(request));
    }
    setup_s.push_back(SecondsSince(t0));
  }
  result->SetSetup(setup_s);

  LoadOutcome fixed;
  double capacity = 0.0;
  {
    ServeStack stack(primed->registry.get());
    if (const dspot::Status s = stack.Start(); !s.ok()) {
      result->Gate(false, "server start: " + s.ToString());
      return;
    }
    fixed = OpenLoopTcp(cpus, stack.port(), frames, 0, n_fixed,
                        shape.fixed_rps, /*keep=*/true);
    result->Attempt(fixed.attempted, fixed.failed);
  }
  {
    // A second server over the same registry, on the saturation CPUs.
    cpus.ThroughputServer();
    ServeStack stack(primed->registry.get());
    const dspot::Status started = stack.Start();
    cpus.LatencyServer();
    if (!started.ok()) {
      result->Gate(false, "server start: " + started.ToString());
      return;
    }
    capacity = Saturate(cpus, stack.port(), frames, n_fixed, n_total, result);
  }
  result->Gate(fixed.transport_ok && fixed.failed == 0,
               "every fixed-rate request got an OK reply over TCP");
  std::vector<double> latency = fixed.latency_ms;
  std::vector<double> late = fixed.late_ms;
  const Summary lat = Summarize(&latency);
  const Summary lateness = Summarize(&late);
  result->Gate(lateness.tail <= kLateBoundMs,
               "open-loop generator stayed on schedule (late p" +
                   std::to_string(static_cast<int>(lateness.tail_pct)) +
                   " <= 10 ms)");
  result->SetEndToEnd("latency_ms", lat.p50);
  result->SetEndToEnd("throughput_per_s", capacity);
  result->SetReport("p50_ms", lat.p50, "ms");
  result->SetReport("p" + std::to_string(static_cast<int>(lat.tail_pct)) +
                        "_ms",
                    lat.tail, "ms");
  result->SetReport("requests_at_fixed_rate", static_cast<double>(lat.count),
                    "count");
  result->SetReport("capacity_rps", capacity, "1/s");
  result->SetReport("saturation_requests",
                    static_cast<double>(shape.saturation_requests), "count");
  result->SetReport("client_late_p" +
                        std::to_string(static_cast<int>(lateness.tail_pct)) +
                        "_ms",
                    lateness.tail, "ms");
  result->SetReport("reply_crc", fixed.crc, "crc32");
  result->SetEndToEnd("peak_rss_mb", PeakRssMb());
  if (!args.trace) return;

  // Traced phase: the fixed-rate schedule again, on a freshly primed
  // registry, with dspot_obs armed.
  primed = Prime(shape, scratch.path(), budget, n_models);
  if (!primed) {
    result->Gate(false, "registry priming (traced)");
    return;
  }
  dspot::ObsRegistry& obs = dspot::ObsRegistry::Instance();
  obs.Reset();
  dspot::ObsOptions obs_options;
  obs_options.trace = true;
  LoadOutcome traced;
  dspot::ServeStats engine_stats;
  double traced_wall_s = 0.0;
  {
    ServeStack stack(primed->registry.get());
    if (const dspot::Status s = stack.Start(); !s.ok()) {
      result->Gate(false, "server start: " + s.ToString());
      return;
    }
    obs.Enable(obs_options);
    const Clock::time_point t0 = Clock::now();
    traced = OpenLoopTcp(cpus, stack.port(), frames, 0, n_fixed,
                         shape.fixed_rps, /*keep=*/true);
    traced_wall_s = SecondsSince(t0);
    obs.Disable();
    engine_stats = stack.engine().stats();
  }
  result->Attempt(traced.attempted, traced.failed);
  const dspot::ObsSnapshot snap = obs.Snapshot();
  const std::vector<dspot::TraceEvent> events = obs.TraceEvents();
  result->Gate(traced.transport_ok && traced.crc == fixed.crc,
               "traced replies are byte-identical to the untraced run");
  const dspot::RegistryStats reg = primed->registry->stats();
  const dspot::RegistryStats& base = primed->after_prime;
  const double hits = static_cast<double>(reg.hits - base.hits);
  const double misses = static_cast<double>(reg.misses - base.misses);
  result->SetLayer("serve.registry.hit_ratio",
                   hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
  result->SetLayer("serve.registry.reloads",
                   static_cast<double>(reg.reloads - base.reloads));
  result->SetLayer("serve.registry.evictions",
                   static_cast<double>(reg.evictions - base.evictions));
  result->SetLayer("serve.registry.spills",
                   static_cast<double>(reg.spills - base.spills));
  result->SetLayer("serve.engine.exec_ms.forecast",
                   MeanMs(snap, "serve.latency.forecast_ms"));
  result->SetLayer("serve.engine.exec_ms.outlier",
                   MeanMs(snap, "serve.latency.outlier_ms"));
  result->SetLayer("serve.engine.exec_ms.refit",
                   MeanMs(snap, "serve.latency.refit_ms"));
  result->SetLayer("serve.engine.batch_size",
                   engine_stats.batches > 0
                       ? static_cast<double>(engine_stats.completed) /
                             static_cast<double>(engine_stats.batches)
                       : 0.0);
  std::vector<double> traced_latency = traced.latency_ms;
  const Summary traced_lat = Summarize(&traced_latency);
  result->SetLayer("serve.client.p99_ms", NearestRank(traced_latency, 0.99));
  result->SetLayer("serve.client.late_ms", lateness.tail);
  result->SetLayer("obs.overhead.latency_ms", traced_lat.p50 - lat.p50);
  SetFitLayerMetrics(snap, events, traced_wall_s, kEngineThreads, 1.0,
                     result);
  WriteTrace(args.work_dir + "/" + shape.name + "-seed" +
                 std::to_string(args.seed) + ".trace.json",
             result);

  // Engine-direct: the same schedule through SubmitWithCallback.
  primed = Prime(shape, scratch.path(), budget, n_models);
  if (!primed) {
    result->Gate(false, "registry priming (engine-direct)");
    return;
  }
  std::vector<dspot::ServeReply> replies;
  LoadOutcome direct;
  {
    dspot::ServeEngine engine(primed->registry.get(), EngineOptions());
    direct = OpenLoopEngine(cpus, &engine, requests, n_fixed, shape.fixed_rps,
                            &replies);
    engine.Stop();
  }
  result->Attempt(direct.attempted, direct.failed);
  result->Gate(direct.crc == fixed.crc,
               "engine-direct replies are byte-identical to the TCP replies");
  std::vector<double> direct_latency = direct.latency_ms;
  double direct_mean = 0.0;
  for (const double ms : direct_latency) direct_mean += ms;
  direct_mean /=
      static_cast<double>(std::max<size_t>(direct_latency.size(), 1));
  const Summary engine_lat = Summarize(&direct_latency);
  result->SetLayer("serve.engine.latency_p50_ms", engine_lat.p50);
  result->SetLayer("serve.engine.latency_p99_ms",
                   NearestRank(direct_latency, 0.99));
  result->SetLayer("serve.net.overhead_ms", lat.p50 - engine_lat.p50);
  double exec_sum = 0.0;
  double exec_n = 0.0;
  for (const char* name : {"serve.latency.forecast_ms",
                           "serve.latency.outlier_ms",
                           "serve.latency.refit_ms"}) {
    exec_sum += HistogramSumMs(snap, name);
    exec_n += static_cast<double>(snap.HistogramCount(name));
  }
  result->SetLayer("serve.engine.queue_wait_ms",
                   direct_mean - (exec_n > 0.0 ? exec_sum / exec_n : 0.0));

  // ModelRegistry::Get over the request keyword sequence, on a registry
  // with the same configuration.
  primed = Prime(shape, scratch.path(), budget, n_models);
  if (!primed) {
    result->Gate(false, "registry priming (Get probe)");
    return;
  }
  std::vector<double> hit_us, miss_us;
  bool gets_ok = true;
  for (const dspot::ServeRequest& request : requests) {
    const bool resident = primed->registry->Resident(request.keyword);
    const Clock::time_point t0 = Clock::now();
    const bool ok = primed->registry->Get(request.keyword).ok();
    (resident ? hit_us : miss_us).push_back(MsSince(t0) * 1e3);
    gets_ok = gets_ok && ok;
  }
  result->Attempt(requests.size(), gets_ok ? 0 : 1);
  result->Gate(gets_ok, "every registry Get found its model");
  result->SetLayer("serve.registry.get.us.hit", Median(hit_us));
  result->SetLayer("serve.registry.get.us.miss", Median(miss_us));
  primed.reset();

  // DSRQ/DSRP codec: encode and decode of one request plus its reply.
  std::vector<double> encode_us, decode_us;
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point t0 = Clock::now();
    std::vector<std::vector<uint8_t>> req_payloads, rep_payloads;
    req_payloads.reserve(n_fixed);
    rep_payloads.reserve(n_fixed);
    for (size_t i = 0; i < n_fixed; ++i) {
      req_payloads.push_back(dspot::EncodeRequestPayload(requests[i]));
      rep_payloads.push_back(dspot::EncodeReplyPayload(replies[i]));
    }
    encode_us.push_back(MsSince(t0) * 1e3 / static_cast<double>(n_fixed));
    bool decoded = true;
    t0 = Clock::now();
    for (size_t i = 0; i < n_fixed; ++i) {
      auto q = dspot::DecodeRequestPayload(req_payloads[i].data(),
                                           req_payloads[i].size(), "probe");
      auto p = dspot::DecodeReplyPayload(rep_payloads[i].data(),
                                         rep_payloads[i].size(), "probe");
      decoded = decoded && q.ok() && p.ok();
    }
    decode_us.push_back(MsSince(t0) * 1e3 / static_cast<double>(n_fixed));
    result->Gate(decoded, "codec round trip");
  }
  result->SetLayer("serve.protocol.encode.us", Median(encode_us));
  result->SetLayer("serve.protocol.decode.us", Median(decode_us));
  const dspot::ServedModel model = MakeModel(shape, 0);
  dspot::ModelParamSet set;
  set.global = {model.params};
  set.shocks = model.shocks;
  set.num_keywords = 1;
  set.num_locations = 1;
  set.num_ticks = static_cast<size_t>(model.fit_ticks + kHorizon);
  result->SetLayer("core.forecast_sim.us", SimulateGlobalUs(set));
}

}  // namespace

void RunServeSpill(const Args& args, Result* result) {
  ServeShape shape;
  shape.name = "serve_spill";
  shape.keywords = args.smoke ? 400 : 2000;
  shape.fit_ticks = 64;
  shape.forecast_pct = 90;
  shape.outlier_pct = 8;
  shape.budget_fraction = 0.1;
  shape.fixed_rps = args.smoke ? 200.0 : 500.0;
  shape.saturation_requests = args.smoke ? 420 : 16800;
  RunServe(shape, args, result);
}

void RunServeResident(const Args& args, Result* result) {
  ServeShape shape;
  shape.name = "serve_resident";
  shape.keywords = args.smoke ? 32 : 256;
  shape.fit_ticks = args.smoke ? 120 : 260;
  shape.forecast_pct = 85;
  shape.outlier_pct = 10;
  shape.budget_fraction = 1.0;
  shape.fixed_rps = args.smoke ? 100.0 : 150.0;
  shape.saturation_requests = args.smoke ? 210 : 4480;
  shape.setup_reps = 7;  // a small registry primes in milliseconds
  RunServe(shape, args, result);
}

}  // namespace perfbench
