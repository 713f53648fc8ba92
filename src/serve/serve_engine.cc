#include "serve/serve_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/schedule_cache.h"
#include "core/simulate.h"
#include "obs/metrics.h"
#include "parallel/parallel_for.h"
#include "timeseries/series.h"

namespace dspot {

namespace {

/// Smallest RMSE used as an outlier-score denominator; a perfectly fitted
/// model would otherwise turn every residual into an infinite z-score.
constexpr double kMinScoreRmse = 1e-9;

}  // namespace

const char* ServeOpName(ServeOp op) {
  switch (op) {
    case ServeOp::kFit:
      return "fit";
    case ServeOp::kRefit:
      return "refit";
    case ServeOp::kForecast:
      return "forecast";
    case ServeOp::kOutlierScore:
      return "outlier-score";
  }
  return nullptr;
}

ServeEngine::ServeEngine(ModelRegistry* registry, const ServeOptions& options)
    : registry_(registry), options_(options) {
  options_.queue_cap = std::max<size_t>(size_t{1}, options_.queue_cap);
  options_.max_batch = std::max<size_t>(size_t{1}, options_.max_batch);
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

ServeEngine::~ServeEngine() { Stop(); }

std::future<ServeReply> ServeEngine::Submit(ServeRequest request) {
  auto promise = std::make_shared<std::promise<ServeReply>>();
  std::future<ServeReply> future = promise->get_future();
  SubmitWithCallback(std::move(request), [promise](ServeReply reply) {
    promise->set_value(std::move(reply));
  });
  return future;
}

std::deque<ServeEngine::Pending>::iterator ServeEngine::ShedVictimLocked(
    const std::string& tenant) {
  // Quota slice first: a tenant already holding its full share must make
  // room inside its OWN slice, so the victim is that tenant's oldest
  // queued request — other tenants' slots are untouchable.
  if (options_.tenant_quota > 0) {
    const uint64_t quota = static_cast<uint64_t>(
        std::min(options_.tenant_quota, options_.queue_cap));
    const auto mine = queued_per_tenant_.find(tenant);
    if (mine != queued_per_tenant_.end() && mine->second >= quota) {
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->request.tenant == tenant) {
          return it;
        }
      }
    }
  }
  if (queue_.size() < options_.queue_cap) {
    return queue_.end();
  }
  // Whole-queue overflow: shed the oldest request of the FULLEST tenant
  // (the offender by occupancy), never simply the global front — the
  // front is typically a fair tenant that queued early.
  uint64_t max_count = 0;
  for (const auto& [t, count] : queued_per_tenant_) {
    max_count = std::max(max_count, count);
  }
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const auto count = queued_per_tenant_.find(it->request.tenant);
    if (count != queued_per_tenant_.end() && count->second == max_count) {
      return it;
    }
  }
  return queue_.end();
}

void ServeEngine::SubmitWithCallback(ServeRequest request,
                                     std::function<void(ServeReply)> done) {
  Pending pending;
  const double budget = request.deadline_ms > 0.0
                            ? request.deadline_ms
                            : options_.default_deadline_ms;
  if (budget > 0.0) {
    pending.deadline = Deadline::AfterMillis(budget);
  }
  pending.done = std::move(done);
  std::function<void(ServeReply)> shed_done;
  ServeReply shed_reply;
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ServeReply reply;
      reply.id = request.id;
      reply.status = Status::Cancelled("serve engine is stopping");
      pending.done(std::move(reply));
      return;
    }
    const auto victim = ShedVictimLocked(request.tenant);
    if (victim != queue_.end()) {
      // Shed the chosen OLDEST request: under overload the freshest work
      // survives, and the shed client gets an immediate, retryable error
      // instead of a timeout.
      shed = true;
      const std::string& victim_tenant = victim->request.tenant;
      shed_reply.id = victim->request.id;
      shed_reply.status = Status::ResourceExhausted(
          victim_tenant == request.tenant && options_.tenant_quota > 0 &&
                  queue_.size() < options_.queue_cap
              ? "tenant '" + victim_tenant + "' admission quota full (" +
                    std::to_string(std::min(options_.tenant_quota,
                                            options_.queue_cap)) +
                    " slots); request shed by a newer arrival from the "
                    "same tenant"
              : "admission queue full (cap " +
                    std::to_string(options_.queue_cap) +
                    "); request shed by a newer arrival");
      shed_done = std::move(victim->done);
      ++tenant_stats_[victim_tenant].shed;
      auto count = queued_per_tenant_.find(victim_tenant);
      if (count != queued_per_tenant_.end() && --count->second == 0) {
        queued_per_tenant_.erase(count);
      }
      queue_.erase(victim);
      ++stats_.admission_rejects;
      DSPOT_COUNT("serve.admission_rejects", 1);
    }
    ++queued_per_tenant_[request.tenant];
    ++tenant_stats_[request.tenant].submitted;
    pending.request = std::move(request);
    queue_.push_back(std::move(pending));
    ++stats_.submitted;
    stats_.max_queue_depth = std::max<uint64_t>(
        stats_.max_queue_depth, static_cast<uint64_t>(queue_.size()));
    DSPOT_GAUGE_SET("serve.queue.depth", static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  if (shed) {
    shed_done(std::move(shed_reply));
  }
}

ServeReply ServeEngine::Call(ServeRequest request) {
  return Submit(std::move(request)).get();
}

void ServeEngine::Stop() {
  std::deque<Pending> drained;
  std::thread dispatcher;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    drained.swap(queue_);
    queued_per_tenant_.clear();
    // Claim the dispatcher thread under the lock: concurrent Stop()
    // calls (e.g. an explicit Stop racing the destructor) must not both
    // see a joinable thread and join it twice — that is UB. Exactly one
    // caller moves the handle out and joins; the others find it empty.
    dispatcher = std::move(dispatcher_);
  }
  cv_.notify_all();
  for (Pending& pending : drained) {
    ServeReply reply;
    reply.id = pending.request.id;
    reply.status = Status::Cancelled("serve engine stopped");
    pending.done(std::move(reply));
  }
  if (dispatcher.joinable()) {
    dispatcher.join();
  }
}

ServeStats ServeEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::map<std::string, TenantCounters> ServeEngine::tenant_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenant_stats_;
}

void ServeEngine::DispatchLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) {
        return;
      }
      const size_t take = std::min(options_.max_batch, queue_.size());
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        auto count = queued_per_tenant_.find(queue_.front().request.tenant);
        if (count != queued_per_tenant_.end() && --count->second == 0) {
          queued_per_tenant_.erase(count);
        }
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      DSPOT_GAUGE_SET("serve.queue.depth", static_cast<double>(queue_.size()));
      ++stats_.batches;
    }
    ExecuteBatch(std::move(batch));
  }
}

void ServeEngine::ExecuteBatch(std::vector<Pending> batch) {
  // Group the batch by keyword, PRESERVING admission order inside each
  // group: a fit admitted before a forecast of the same keyword must be
  // visible to it. Groups of different keywords commute (every model is
  // keyed by its own keyword), so they run concurrently; each request's
  // reply lands in its own pre-assigned slot, making the reply set
  // bit-identical at any thread count.
  std::vector<std::vector<size_t>> groups;
  {
    std::unordered_map<std::string, size_t> group_of;
    for (size_t i = 0; i < batch.size(); ++i) {
      auto [it, inserted] =
          group_of.emplace(batch[i].request.keyword, groups.size());
      if (inserted) {
        groups.emplace_back();
      }
      groups[it->second].push_back(i);
    }
  }
  std::vector<ServeReply> replies(batch.size());
  ParallelOptions parallel;
  parallel.num_threads = options_.num_threads;
  ParallelFor(groups.size(), parallel, [this, &batch, &groups,
                                        &replies](size_t g) {
    for (size_t index : groups[g]) {
      replies[index] = Execute(batch[index].request, batch[index].deadline);
    }
  });
  uint64_t expired = 0;
  for (const ServeReply& reply : replies) {
    if (reply.status.code() == StatusCode::kDeadlineExceeded) {
      ++expired;
    }
  }
  // Stats move BEFORE the replies are delivered: a client returning from
  // Call() must observe its own request in the counters.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.completed += batch.size();
    stats_.deadline_expired += expired;
    for (const Pending& pending : batch) {
      ++tenant_stats_[pending.request.tenant].completed;
    }
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].done(std::move(replies[i]));
  }
}

ServeReply ServeEngine::Execute(const ServeRequest& request,
                                const Deadline& deadline) {
  const auto start = std::chrono::steady_clock::now();
  ServeReply reply;
  reply.id = request.id;
  DSPOT_COUNT("serve.requests", 1);

  const char* op_name = ServeOpName(request.op);
  if (op_name == nullptr) {
    reply.status = Status::InvalidArgument(
        "request " + std::to_string(request.id) + ": unknown op code " +
        std::to_string(static_cast<uint32_t>(request.op)));
    return reply;
  }
  // An already-expired deadline is rejected before any state is touched:
  // the model store must not absorb a fit the client has given up on.
  if (deadline.expired()) {
    DSPOT_COUNT("serve.deadline_expired", 1);
    reply.status = Status::DeadlineExceeded(
        "request " + std::to_string(request.id) + " (" + op_name +
        " '" + request.keyword + "'): deadline expired before execution");
    return reply;
  }
  GuardContext guard;
  guard.deadline = deadline;

  switch (request.op) {
    case ServeOp::kFit:
    case ServeOp::kRefit: {
      if (request.values.empty()) {
        reply.status = Status::InvalidArgument(
            "request " + std::to_string(request.id) + " (" + op_name +
            " '" + request.keyword + "'): no observed values");
        break;
      }
      GlobalFitOptions fit_options = options_.fit;
      fit_options.guard = guard;
      const Series data(std::vector<double>(request.values));
      StatusOr<GlobalSequenceFit> fit =
          Status::Internal("serve: fit not attempted");
      bool warm = false;
      if (request.op == ServeOp::kRefit) {
        StatusOr<ServedModel> previous = registry_->Get(request.keyword);
        // A refit without a stored model — or with fewer observations than
        // the stored fit covers — degenerates to a cold fit rather than
        // failing: the client's intent is "make the model current".
        if (previous.ok() &&
            previous->fit_ticks <= request.values.size()) {
          warm = true;
          fit = RefitGlobalSequence(data, 0, 1, *previous, fit_options);
        } else if (!previous.ok() &&
                   previous.status().code() != StatusCode::kNotFound) {
          // An unreadable or corrupt spill record is a real error, not a
          // cold-start case.
          reply.status = previous.status();
          break;
        }
      }
      if (!warm) {
        fit = FitGlobalSequence(data, 0, 1, fit_options);
      }
      if (!fit.ok()) {
        reply.status = fit.status();
        break;
      }
      ServedModel model;
      static_cast<KeywordModel&>(model) = std::move(*fit);
      model.keyword = request.keyword;
      reply.status = registry_->Put(model);
      if (reply.status.ok()) {
        reply.rmse = model.rmse;
        reply.cost_bits = model.cost_bits;
      }
      break;
    }
    case ServeOp::kForecast: {
      if (request.horizon == 0) {
        reply.status = Status::InvalidArgument(
            "request " + std::to_string(request.id) + " (forecast '" +
            request.keyword + "'): horizon must be >= 1");
        break;
      }
      // The horizon is an unvalidated u64 off the wire: reject it BEFORE
      // sizing the simulation buffer, or `fit_ticks + horizon` can wrap
      // size_t (out-of-bounds iterator, UB) or request an absurd
      // allocation that kills the server with bad_alloc.
      if (request.horizon > kServeMaxForecastTicks) {
        reply.status = Status::InvalidArgument(
            "request " + std::to_string(request.id) + " (forecast '" +
            request.keyword + "'): horizon " +
            std::to_string(request.horizon) + " exceeds cap " +
            std::to_string(kServeMaxForecastTicks));
        break;
      }
      StatusOr<ServedModel> model = registry_->Get(request.keyword);
      if (!model.ok()) {
        reply.status = model.status();
        break;
      }
      // fit_ticks comes from the spill log, which may be hostile: bound
      // it by the same cap so the sum below cannot overflow.
      if (model->fit_ticks > kServeMaxForecastTicks) {
        reply.status = Status::InvalidArgument(
            "request " + std::to_string(request.id) + " (forecast '" +
            request.keyword + "'): stored model spans " +
            std::to_string(model->fit_ticks) + " ticks, exceeding cap " +
            std::to_string(kServeMaxForecastTicks));
        break;
      }
      const size_t fit_ticks = static_cast<size_t>(model->fit_ticks);
      const size_t total = fit_ticks + static_cast<size_t>(request.horizon);
      std::vector<double> curve(total, 0.0);
      ScheduleCache cache;
      SimulateKeywordInto(*model, &cache, curve);
      reply.values.assign(curve.begin() + static_cast<ptrdiff_t>(fit_ticks),
                          curve.end());
      reply.rmse = model->rmse;
      reply.cost_bits = model->cost_bits;
      break;
    }
    case ServeOp::kOutlierScore: {
      if (request.values.empty()) {
        reply.status = Status::InvalidArgument(
            "request " + std::to_string(request.id) + " (outlier-score '" +
            request.keyword + "'): no observed values");
        break;
      }
      StatusOr<ServedModel> model = registry_->Get(request.keyword);
      if (!model.ok()) {
        reply.status = model.status();
        break;
      }
      // z_t = (observed - modeled) / rmse over the observed window; ticks
      // past the fitted range score against the model's forecast, so a
      // fresh spike shows up immediately.
      const size_t n = request.values.size();
      std::vector<double> estimate(n, 0.0);
      ScheduleCache cache;
      SimulateKeywordInto(*model, &cache, estimate);
      const double denom = std::max(model->rmse, kMinScoreRmse);
      reply.values.resize(n);
      for (size_t t = 0; t < n; ++t) {
        reply.values[t] = (request.values[t] - estimate[t]) / denom;
      }
      reply.rmse = model->rmse;
      break;
    }
  }

  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  switch (request.op) {
    case ServeOp::kFit:
      DSPOT_OBSERVE("serve.latency.fit_ms", elapsed_ms);
      break;
    case ServeOp::kRefit:
      DSPOT_OBSERVE("serve.latency.refit_ms", elapsed_ms);
      break;
    case ServeOp::kForecast:
      DSPOT_OBSERVE("serve.latency.forecast_ms", elapsed_ms);
      break;
    case ServeOp::kOutlierScore:
      DSPOT_OBSERVE("serve.latency.outlier_ms", elapsed_ms);
      break;
  }
  return reply;
}

}  // namespace dspot
