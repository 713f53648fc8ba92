#ifndef DSPOT_SERVE_SERVE_ENGINE_H_
#define DSPOT_SERVE_SERVE_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/global_fit.h"
#include "guard/guard.h"
#include "serve/model_registry.h"

namespace dspot {

/// dspot_serve's request path: a bounded admission queue feeding a
/// dispatcher that batches requests onto the dspot_parallel pool, with
/// per-request deadlines/cancellation via dspot_guard and a ModelRegistry
/// as the model store.
///
/// DETERMINISM: replies are a pure function of the request sequence, at
/// any worker thread count, provided (a) the registry has a spill
/// directory (so evictions reload bit-identically), (b) deadlines are
/// left infinite (expiry is a wall-clock event), and (c) the queue never
/// overflows (shedding depends on arrival timing). The dispatcher batches
/// FIFO prefixes and executes each keyword's requests sequentially in
/// admission order; requests of different keywords commute because every
/// model is keyed by its own keyword. serve_test holds an 8-thread run
/// bit-identical to a serial replay of the same log.

enum class ServeOp : uint32_t {
  kFit = 0,           ///< cold-fit `values`, store the model
  kRefit = 1,         ///< warm refit from the stored model (cold fallback)
  kForecast = 2,      ///< simulate `horizon` ticks past the fitted range
  kOutlierScore = 3,  ///< z-scores of `values` against the model estimate
};

/// Canonical lowercase name ("fit", "refit", ...); nullptr when invalid.
const char* ServeOpName(ServeOp op);

/// Upper bound on a forecast request's horizon AND on a stored model's
/// fitted range when forecasting: the simulation buffer spans
/// `fit_ticks + horizon` ticks, and both operands arrive from untrusted
/// bytes (the wire frame and the spill log respectively), so without a
/// cap a single hostile request could wrap the sum past SIZE_MAX (an
/// out-of-bounds iterator — UB) or demand a near-2^64-byte allocation.
/// 4Mi ticks keeps the worst-case curve at 64 MiB and the reply payload
/// under the wire frame cap (protocol.cc static_asserts the latter).
inline constexpr uint64_t kServeMaxForecastTicks = 4ull << 20;

struct ServeRequest {
  uint64_t id = 0;  ///< echoed in the reply; assigned by the client
  ServeOp op = ServeOp::kForecast;
  std::string keyword;
  /// Admission-quota bucket. NOT part of the wire request: the transport
  /// assigns it per connection (TCP tenant handshake; "" everywhere else,
  /// the default tenant). Replies never depend on it — it only decides
  /// which queue slice the request occupies and who gets shed first.
  std::string tenant;
  /// Observed activity: the series to fit (kFit/kRefit) or to score
  /// (kOutlierScore); unused by kForecast.
  std::vector<double> values;
  /// Forecast ticks past the fitted range (kForecast only).
  uint64_t horizon = 0;
  /// Per-request time budget, milliseconds; 0 inherits
  /// ServeOptions::default_deadline_ms (and 0 there means infinite). The
  /// deadline arms at ADMISSION, so queueing time counts against it.
  double deadline_ms = 0.0;
};

struct ServeReply {
  uint64_t id = 0;
  Status status = Status::Ok();
  /// Forecast values, outlier z-scores, or empty (fit/refit).
  std::vector<double> values;
  /// Model in-sample RMSE after the operation (fit/refit/forecast).
  double rmse = 0.0;
  /// Model MDL cost after the operation (fit/refit).
  double cost_bits = 0.0;
};

struct ServeOptions {
  /// Worker threads for batch execution (0 = hardware concurrency,
  /// 1 = serial). Replies are bit-identical across settings (see above).
  size_t num_threads = 1;
  /// Admission queue bound. A Submit against a full queue sheds the
  /// OLDEST queued request — its reply carries kResourceExhausted — and
  /// admits the new one: under overload the freshest work survives, and
  /// the shed client learns immediately instead of timing out. With
  /// tenant quotas active the victim is chosen WITHIN the offending
  /// tenant (see tenant_quota).
  size_t queue_cap = 1024;
  /// Per-tenant slice of the admission queue; 0 disables slicing (every
  /// tenant shares queue_cap, exactly the pre-tenant behavior). With a
  /// quota Q > 0, a tenant holding Q queued slots sheds ITS OWN oldest
  /// request to admit a new one, and a global overflow sheds the oldest
  /// request of the fullest tenant — so a flooding tenant evicts only
  /// itself and every fair tenant keeps its slice.
  size_t tenant_quota = 0;
  /// Default per-request budget when ServeRequest::deadline_ms == 0;
  /// 0 = infinite.
  double default_deadline_ms = 0.0;
  /// Max requests drained into one execution batch.
  size_t max_batch = 64;
  /// Fit options for kFit/kRefit (guard is overwritten per request).
  GlobalFitOptions fit;
};

/// Monotonic engine counters (also exported as serve.* obs metrics).
struct ServeStats {
  uint64_t submitted = 0;          ///< admitted into the queue
  uint64_t completed = 0;          ///< replies delivered (any status)
  uint64_t admission_rejects = 0;  ///< shed with kResourceExhausted
  uint64_t deadline_expired = 0;   ///< replied kDeadlineExceeded unexecuted
  uint64_t batches = 0;            ///< dispatcher batches executed
  uint64_t max_queue_depth = 0;    ///< high-water mark of queued requests
};

/// Per-tenant admission accounting (keyed by ServeRequest::tenant; the
/// default tenant is ""). The tenant-quota tests in serve_test and
/// net_server_test read these.
struct TenantCounters {
  uint64_t submitted = 0;  ///< admitted into this tenant's slice
  uint64_t shed = 0;       ///< this tenant's requests shed by admission
  uint64_t completed = 0;  ///< replies delivered (any status)
};

class ServeEngine {
 public:
  /// `registry` must outlive the engine. The dispatcher thread starts
  /// immediately.
  ServeEngine(ModelRegistry* registry, const ServeOptions& options);

  /// Stops the engine (see Stop()).
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Enqueues a request; the future resolves when its reply is ready
  /// (possibly with status kResourceExhausted if a later Submit sheds it,
  /// or kCancelled if the engine stops first). Never blocks on the queue.
  std::future<ServeReply> Submit(ServeRequest request);

  /// Like Submit, but delivers the reply through `done` instead of a
  /// future. `done` is invoked exactly once — possibly synchronously
  /// inside this call (stop/shed), otherwise from an engine thread — and
  /// must not block: the TCP transport uses it to hand replies back to
  /// the event loop without a polling thread per connection.
  void SubmitWithCallback(ServeRequest request,
                          std::function<void(ServeReply)> done);

  /// Submit + wait. Convenience for tests and serial clients.
  ServeReply Call(ServeRequest request);

  /// Stops the dispatcher: requests still queued are replied kCancelled,
  /// in-flight batches finish. Idempotent.
  void Stop();

  ServeStats stats() const;

  /// Per-tenant admission counters, keyed by tenant name ("" = default).
  std::map<std::string, TenantCounters> tenant_stats() const;

 private:
  struct Pending {
    ServeRequest request;
    std::function<void(ServeReply)> done;
    Deadline deadline;  ///< armed at admission
  };

  void DispatchLoop();
  void ExecuteBatch(std::vector<Pending> batch);
  /// Executes one request against the registry (no queue interaction).
  ServeReply Execute(const ServeRequest& request, const Deadline& deadline);
  /// Picks the queued request admission must shed to make room for an
  /// arrival from `tenant`, or queue_.end() if none is required. Must be
  /// called with mu_ held.
  std::deque<Pending>::iterator ShedVictimLocked(const std::string& tenant);

  ModelRegistry* registry_;
  ServeOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  /// Queued-slot count per tenant (entries removed at zero, so the map
  /// stays bounded by the set of currently queued tenants).
  std::unordered_map<std::string, uint64_t> queued_per_tenant_;
  bool stopping_ = false;
  ServeStats stats_;
  std::map<std::string, TenantCounters> tenant_stats_;

  std::thread dispatcher_;
};

}  // namespace dspot

#endif  // DSPOT_SERVE_SERVE_ENGINE_H_
