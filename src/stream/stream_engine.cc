#include "stream/stream_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "core/simulate.h"
#include "obs/metrics.h"
#include "parallel/parallel_for.h"
#include "timeseries/peaks.h"
#include "timeseries/series.h"

namespace dspot {

namespace {

/// Translates a fit-local shock inventory forward by `shift` ticks (the
/// ring evicted that many ticks since the fit), dropping what fell off the
/// window. One-shots keep only their still-visible tail; cyclic shocks drop
/// fully evicted occurrences (a boundary-straddling occurrence is dropped
/// whole — the refit re-estimates strengths anyway) and keep their phase.
/// Shocks with no occurrence left inside `window_len` ticks vanish; if they
/// matter, re-detection will find them again.
std::vector<Shock> RebaseShocks(const std::vector<Shock>& shocks, size_t shift,
                                size_t window_len) {
  std::vector<Shock> rebased;
  rebased.reserve(shocks.size());
  for (const Shock& shock : shocks) {
    Shock moved = shock;
    if (!shock.IsCyclic()) {
      const size_t end = shock.start + shock.width;
      if (end <= shift) continue;  // fully evicted
      if (shock.start >= shift) {
        moved.start = shock.start - shift;
      } else {
        moved.start = 0;
        moved.width = end - shift;
      }
    } else {
      // First occurrence whose start survives the shift.
      const size_t m0 =
          shift <= shock.start
              ? 0
              : (shift - shock.start + shock.period - 1) / shock.period;
      moved.start = shock.start + m0 * shock.period - shift;
      if (m0 > 0 && m0 <= moved.global_strengths.size()) {
        moved.global_strengths.erase(moved.global_strengths.begin(),
                                     moved.global_strengths.begin() +
                                         static_cast<ptrdiff_t>(m0));
      } else if (m0 > moved.global_strengths.size()) {
        moved.global_strengths.clear();
      }
    }
    if (moved.start >= window_len) continue;  // nothing left in the window
    rebased.push_back(std::move(moved));
  }
  return rebased;
}

}  // namespace

StreamEngine::StreamEngine(const StreamOptions& options) : options_(options) {
  // Normalize the knobs instead of failing construction: the floors are
  // contracts of the layers underneath (the fit layer needs 16
  // observations; a ring must hold at least one fit window).
  options_.ticks_resolution = std::max<int64_t>(options_.ticks_resolution, 1);
  options_.min_fit_ticks = std::max<size_t>(options_.min_fit_ticks, 16);
  options_.ring_capacity =
      std::max(options_.ring_capacity, options_.min_fit_ticks);
  options_.refit_interval = std::max<size_t>(options_.refit_interval, 1);
  options_.forecast_horizon = std::max<size_t>(options_.forecast_horizon, 1);
  options_.max_keywords = std::max<size_t>(options_.max_keywords, 1);
}

StreamEngine::~StreamEngine() = default;

StatusOr<uint32_t> StreamEngine::EnsureKeyword(std::string_view keyword) {
  if (keyword.empty()) {
    return Status::InvalidArgument("StreamEngine: keyword must be non-empty");
  }
  const auto it = index_.find(keyword);
  if (it != index_.end()) {
    return it->second;
  }
  if (keywords_.size() >= options_.max_keywords) {
    ++rejected_;
    DSPOT_COUNT("stream.rejected", 1);
    return Status::InvalidArgument(
        "StreamEngine: keyword '" + std::string(keyword) +
        "' would exceed max_keywords = " +
        std::to_string(options_.max_keywords));
  }
  const uint32_t id = static_cast<uint32_t>(keywords_.size());
  keywords_.emplace_back();
  keywords_.back().name = std::string(keyword);
  index_.emplace(keywords_.back().name, id);
  return id;
}

size_t StreamEngine::KeywordIndex(std::string_view keyword) const {
  const auto it = index_.find(keyword);
  return it == index_.end() ? kNpos : it->second;
}

const std::string& StreamEngine::KeywordName(uint32_t keyword) const {
  return keywords_[keyword].name;
}

Status StreamEngine::Append(std::string_view keyword, std::string_view location,
                            int64_t timestamp, double count) {
  // The stream models the paper's global level: every location's activity
  // folds into the keyword's global sequence (see the header).
  (void)location;
  DSPOT_ASSIGN_OR_RETURN(const uint32_t id, EnsureKeyword(keyword));
  return AppendById(id, timestamp, count);
}

Status StreamEngine::AppendById(uint32_t keyword, int64_t timestamp,
                                double count) {
  if (keyword >= keywords_.size()) {
    return Status::InvalidArgument(
        "StreamEngine::Append: keyword index " + std::to_string(keyword) +
        " out of range (" + std::to_string(keywords_.size()) + " interned)");
  }
  KeywordState& ks = keywords_[keyword];
  if (!std::isfinite(count) || count < 0.0) {
    ++rejected_;
    DSPOT_COUNT("stream.rejected", 1);
    return Status::InvalidArgument(
        "StreamEngine::Append: keyword '" + ks.name + "': count " +
        std::to_string(count) + " must be finite and non-negative");
  }
  if (timestamp < options_.origin) {
    ++rejected_;
    DSPOT_COUNT("stream.rejected", 1);
    return Status::InvalidArgument(
        "StreamEngine::Append: keyword '" + ks.name + "': timestamp " +
        std::to_string(timestamp) + " precedes the stream origin " +
        std::to_string(options_.origin));
  }
  if (ks.has_appends && timestamp < ks.last_timestamp) {
    ++rejected_;
    DSPOT_COUNT("stream.rejected", 1);
    return Status::InvalidArgument(
        "StreamEngine::Append: keyword '" + ks.name + "': timestamp " +
        std::to_string(timestamp) + " is out of order (latest accepted " +
        std::to_string(ks.last_timestamp) +
        ") — per-keyword timestamps must be non-decreasing");
  }
  const int64_t tick = (timestamp - options_.origin) / options_.ticks_resolution;
  DSPOT_RETURN_IF_ERROR(AppendTick(&ks, tick, count));
  ks.last_timestamp = timestamp;
  ks.has_appends = true;
  if (!ks.dirty) {
    ks.dirty = true;
    dirty_.push_back(keyword);
  }
  ++appends_;
  DSPOT_COUNT("stream.appends", 1);
  return Status::Ok();
}

Status StreamEngine::AppendTick(KeywordState* ks, int64_t tick, double count) {
  const size_t cap = options_.ring_capacity;
  if (!ks->has_appends) {
    ks->window_start = tick;
    ks->head = 0;
    ks->len = 0;
  }
  if (tick < ks->window_start) {
    // Unreachable through the public API (timestamps are monotone and
    // eviction only ever chases the newest tick), kept as a tripwire.
    return Status::Internal("StreamEngine: tick below the retained window");
  }
  int64_t end = ks->window_start + static_cast<int64_t>(ks->len);
  if (tick >= end) {
    const int64_t new_end = tick + 1;
    int64_t new_start = new_end - static_cast<int64_t>(cap);
    if (new_start < ks->window_start) {
      new_start = ks->window_start;
    }
    if (new_start >= end) {
      // The gap swallowed the whole old window; restart compactly.
      evicted_ticks_ += ks->len;
      DSPOT_COUNT("stream.evicted_ticks", ks->len);
      ks->window_start = new_start;
      ks->head = 0;
      ks->len = 0;
    } else if (new_start > ks->window_start) {
      const size_t evict = static_cast<size_t>(new_start - ks->window_start);
      evicted_ticks_ += evict;
      DSPOT_COUNT("stream.evicted_ticks", evict);
      ks->head = (ks->head + evict) % ks->ring.size();
      ks->window_start = new_start;
      ks->len -= evict;
    }
    const size_t needed = static_cast<size_t>(new_end - ks->window_start);
    if (ks->ring.size() < needed) {
      // Geometric growth from 8 slots up to the capacity cap, linearizing
      // the live window so slot arithmetic stays uniform.
      size_t size = ks->ring.empty() ? 8 : ks->ring.size();
      while (size < needed) {
        size *= 2;
      }
      size = std::min(size, std::max(cap, needed));
      std::vector<double> fresh(size, 0.0);
      for (size_t i = 0; i < ks->len; ++i) {
        fresh[i] = ks->ring[(ks->head + i) % ks->ring.size()];
      }
      AddBufferBytes(static_cast<int64_t>((size - ks->ring.size()) *
                                          sizeof(double)));
      ks->ring.swap(fresh);
      ks->head = 0;
    }
    // Ticks the stream skipped are genuinely zero activity, not missing:
    // an arrival-ordered stream with nothing to report simply says nothing.
    while (ks->window_start + static_cast<int64_t>(ks->len) < new_end) {
      ks->ring[(ks->head + ks->len) % ks->ring.size()] = 0.0;
      ++ks->len;
    }
  }
  const size_t offset = static_cast<size_t>(tick - ks->window_start);
  ks->ring[(ks->head + offset) % ks->ring.size()] += count;
  return Status::Ok();
}

void StreamEngine::CopyWindow(const KeywordState& ks,
                              std::vector<double>* out) const {
  out->resize(ks.len);
  for (size_t i = 0; i < ks.len; ++i) {
    (*out)[i] = ks.ring[(ks.head + i) % ks.ring.size()];
  }
}

StreamEngine::Action StreamEngine::Triage(KeywordState* ks) const {
  if (ks->len < options_.min_fit_ticks) {
    return Action::kNone;  // still warming up — the O(1) quiet path
  }
  if (!ks->has_fit || ks->window_start < ks->fit_window_start) {
    return Action::kCold;
  }
  const size_t shift =
      static_cast<size_t>(ks->window_start - ks->fit_window_start);
  if (shift >= ks->model.fit_ticks) {
    return Action::kCold;  // the fitted range was fully evicted
  }
  // Fit-local window coordinates: tick 0 is fit_window_start.
  const size_t fit_end = ks->model.fit_ticks;
  const size_t window_end = shift + ks->len;
  if (window_end <= fit_end) {
    return Action::kNone;  // no ticks beyond the fitted range
  }
  const size_t new_ticks = window_end - fit_end;
  if (new_ticks >= kResidualBurstQuorum) {
    // UpdateFit's residual-burst test over the retained window: extrapolate
    // the current model over the appended ticks and judge them against the
    // still-retained explained range.
    std::vector<double> estimate(window_end);
    SimulateKeywordInto(ks->model, &ks->cache, estimate);
    std::vector<double> window;
    CopyWindow(*ks, &window);
    const std::span<const double> window_estimate =
        std::span<const double>(estimate).subspan(shift);
    if (HasResidualBurst(window, window_estimate, fit_end - shift)) {
      return Action::kEscalate;
    }
  }
  if (new_ticks >= options_.refit_interval) {
    return Action::kWarm;
  }
  return Action::kNone;
}

StatusOr<StreamFlushReport> StreamEngine::Flush() {
  DSPOT_SPAN("stream.flush");
  ++flushes_;
  DSPOT_COUNT("stream.flushes", 1);

  GuardContext guard;
  guard.deadline = options_.flush_budget_ms > 0.0
                       ? Deadline::AfterMillis(options_.flush_budget_ms)
                       : Deadline::Infinite();
  guard.cancel = options_.cancel;
  if (guard.cancel.cancelled()) {
    return Status::Cancelled("StreamEngine::Flush: cancelled");
  }

  // Claim the dirty set in ascending keyword order — append order depends
  // on arrival interleaving, index order is canonical.
  std::vector<uint32_t> dirty;
  dirty.swap(dirty_);
  std::sort(dirty.begin(), dirty.end());
  for (const uint32_t i : dirty) {
    keywords_[i].dirty = false;
  }
  StreamFlushReport report;
  report.keywords_triaged = dirty.size();

  ParallelOptions popts;
  popts.num_threads = options_.num_threads;
  popts.cancel = guard.cancel;

  // Phase 1: triage verdicts land in pre-assigned slots (read-only on the
  // models, per-keyword scratch) — deterministic at any thread count.
  std::vector<uint8_t> verdicts(dirty.size(), 0);
  ParallelFor(dirty.size(), popts, [&](size_t j) {
    verdicts[j] = static_cast<uint8_t>(Triage(&keywords_[dirty[j]]));
  });
  if (guard.cancel.cancelled()) {
    return Status::Cancelled("StreamEngine::Flush: cancelled");
  }

  struct Job {
    uint32_t keyword;
    Action action;
  };
  std::vector<Job> jobs;
  for (size_t j = 0; j < dirty.size(); ++j) {
    const Action action = static_cast<Action>(verdicts[j]);
    if (action != Action::kNone) {
      jobs.push_back(Job{dirty[j], action});
    }
  }

  GlobalFitOptions base_options = options_.fit;
  base_options.num_threads = 1;  // one keyword per pool slot already
  base_options.guard = guard;

  // Phase 2: the selected fits fan out over the pool, every result in its
  // job's slot. Fit failures stay in their slot (the old model survives);
  // a fired deadline lets in-flight fits return their best partial model.
  std::vector<StatusOr<GlobalSequenceFit>> fits =
      ParallelTryMap<GlobalSequenceFit>(
          jobs.size(), popts, [&](size_t j) -> StatusOr<GlobalSequenceFit> {
            KeywordState& ks = keywords_[jobs[j].keyword];
            std::vector<double> window;
            CopyWindow(ks, &window);
            const Series data(std::move(window));
            GlobalFitOptions fit_options = base_options;
            if (jobs[j].action == Action::kCold) {
              return FitGlobalSequence(data, 0, 1, fit_options);
            }
            // Warm start from the current model, rebased into the ring's
            // present window (the ring may have evicted ticks the model
            // was fit on).
            const size_t shift = static_cast<size_t>(ks.window_start -
                                                     ks.fit_window_start);
            KeywordModel previous;
            previous.params = ks.model.params;
            if (previous.params.has_growth()) {
              previous.params.growth_start =
                  previous.params.growth_start > shift
                      ? previous.params.growth_start - shift
                      : 0;
            }
            previous.shocks = RebaseShocks(ks.model.shocks, shift, ks.len);
            previous.fit_ticks = ks.model.fit_ticks - shift;
            if (jobs[j].action == Action::kWarm) {
              // Scheduled maintenance: pin the shock cap at the current
              // inventory so the refit re-optimizes strengths and base
              // parameters but proposes no new events.
              fit_options.max_shocks_per_keyword = previous.shocks.size();
            }
            return RefitGlobalSequence(data, 0, 1, previous, fit_options);
          });
  if (guard.cancel.cancelled()) {
    return Status::Cancelled("StreamEngine::Flush: cancelled");
  }

  // Phase 3: serial apply in job (= keyword) order.
  std::vector<double> scratch;
  for (size_t j = 0; j < jobs.size(); ++j) {
    StatusOr<GlobalSequenceFit>& fit = fits[j];
    if (!fit.ok()) {
      if (fit.status().code() == StatusCode::kCancelled) {
        return fit.status();
      }
      ++refit_errors_;
      ++report.refit_errors;
      DSPOT_COUNT("stream.refit_errors", 1);
      continue;
    }
    switch (jobs[j].action) {
      case Action::kCold:
        ++cold_fits_;
        ++report.cold_fits;
        DSPOT_COUNT("stream.cold_fits", 1);
        break;
      case Action::kWarm:
        ++warm_refits_;
        ++report.warm_refits;
        DSPOT_COUNT("stream.warm_refits", 1);
        break;
      case Action::kEscalate:
        ++escalations_;
        ++report.escalations;
        DSPOT_COUNT("stream.escalations", 1);
        break;
      case Action::kNone:
        break;
    }
    if (fit->health.termination == FitTermination::kDeadlineExceeded) {
      report.deadline_hit = true;
    }
    DSPOT_OBSERVE("stream.keyword_update_ms", fit->health.wall_time_ms);
    // The fit ran as keyword 0 over the whole window, so its model is
    // already in this keyword's fit-local coordinates.
    KeywordState& ks = keywords_[jobs[j].keyword];
    ks.has_fit = true;
    ks.model = std::move(*fit);
    ks.fit_window_start = ks.window_start;
    PublishForecast(&ks, &scratch);
  }

  DSPOT_GAUGE_SET("stream.keywords", static_cast<double>(keywords_.size()));
  DSPOT_GAUGE_SET("stream.buffer_bytes", static_cast<double>(buffer_bytes_));
  return report;
}

void StreamEngine::PublishForecast(KeywordState* ks,
                                   std::vector<double>* scratch) {
  const size_t horizon = options_.forecast_horizon;
  // The model was just refreshed, so fit-local coordinates and window
  // coordinates agree: simulate fit_ticks + horizon ticks and publish the
  // tail past the fitted range.
  const size_t fit_ticks = ks->model.fit_ticks;
  const size_t total = fit_ticks + horizon;
  scratch->resize(total);
  SimulateKeywordInto(ks->model, &ks->cache, *scratch);
  const int64_t start_tick =
      ks->fit_window_start + static_cast<int64_t>(fit_ticks);

  ForecastCell* cell = ks->forecast.load(std::memory_order_relaxed);
  if (cell == nullptr) {
    // First publication: fill the fresh cell before the pointer store, so
    // any reader that can see the cell sees a stable, complete forecast.
    cell = new ForecastCell(horizon);
    AddBufferBytes(static_cast<int64_t>(sizeof(ForecastCell) +
                                        horizon * sizeof(ForecastCell::Cell)));
    for (size_t k = 0; k < horizon; ++k) {
      cell->values[k].v.store((*scratch)[fit_ticks + k],
                              std::memory_order_relaxed);
    }
    cell->start_tick.store(start_tick, std::memory_order_relaxed);
    ks->forecast.store(cell, std::memory_order_release);
    return;
  }
  // Seqlock writer (Boehm's fence recipe): odd version opens the critical
  // section, the release fence orders it before the value stores, the
  // closing release store republishes an even version.
  const uint64_t v = cell->version.load(std::memory_order_relaxed);
  cell->version.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t k = 0; k < horizon; ++k) {
    cell->values[k].v.store((*scratch)[fit_ticks + k],
                            std::memory_order_relaxed);
  }
  cell->start_tick.store(start_tick, std::memory_order_relaxed);
  cell->version.store(v + 2, std::memory_order_release);
}

Status StreamEngine::ForecastInto(size_t keyword, std::span<double> out,
                                  int64_t* start_tick) const {
  if (keyword >= keywords_.size()) {
    return Status::InvalidArgument(
        "StreamEngine::Forecast: keyword index " + std::to_string(keyword) +
        " out of range (" + std::to_string(keywords_.size()) + " interned)");
  }
  if (out.size() != options_.forecast_horizon) {
    return Status::InvalidArgument(
        "StreamEngine::Forecast: out spans " + std::to_string(out.size()) +
        " values but forecast_horizon is " +
        std::to_string(options_.forecast_horizon));
  }
  const KeywordState& ks = keywords_[keyword];
  const ForecastCell* cell = ks.forecast.load(std::memory_order_acquire);
  if (cell == nullptr) {
    return Status::NotFound("StreamEngine::Forecast: keyword '" + ks.name +
                            "' has no published forecast yet (no fit)");
  }
  // Seqlock reader: retry while a publication is in flight. The writer
  // holds the lock only for O(horizon) stores, so the retry loop is short.
  for (;;) {
    const uint64_t v1 = cell->version.load(std::memory_order_acquire);
    if ((v1 & 1) != 0) {
      continue;
    }
    for (size_t k = 0; k < out.size(); ++k) {
      out[k] = cell->values[k].v.load(std::memory_order_relaxed);
    }
    const int64_t start = cell->start_tick.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (cell->version.load(std::memory_order_relaxed) == v1) {
      if (start_tick != nullptr) {
        *start_tick = start;
      }
      return Status::Ok();
    }
  }
}

StatusOr<StreamForecast> StreamEngine::Forecast(size_t keyword) const {
  StreamForecast forecast;
  forecast.values.resize(options_.forecast_horizon);
  DSPOT_RETURN_IF_ERROR(
      ForecastInto(keyword, forecast.values, &forecast.start_tick));
  return forecast;
}

bool StreamEngine::HasFit(size_t keyword) const {
  return keyword < keywords_.size() &&
         keywords_[keyword].forecast.load(std::memory_order_acquire) != nullptr;
}

StatusOr<StreamForecast> StreamEngine::Window(size_t keyword) const {
  if (keyword >= keywords_.size()) {
    return Status::InvalidArgument(
        "StreamEngine::Window: keyword index " + std::to_string(keyword) +
        " out of range (" + std::to_string(keywords_.size()) + " interned)");
  }
  const KeywordState& ks = keywords_[keyword];
  StreamForecast window;
  window.start_tick = ks.window_start;
  CopyWindow(ks, &window.values);
  return window;
}

StreamStats StreamEngine::stats() const {
  StreamStats stats;
  stats.appends = appends_;
  stats.rejected = rejected_;
  stats.evicted_ticks = evicted_ticks_;
  stats.flushes = flushes_;
  stats.cold_fits = cold_fits_;
  stats.warm_refits = warm_refits_;
  stats.escalations = escalations_;
  stats.refit_errors = refit_errors_;
  stats.num_keywords = keywords_.size();
  stats.buffer_bytes = buffer_bytes_;
  stats.peak_buffer_bytes = peak_buffer_bytes_;
  return stats;
}

void StreamEngine::AddBufferBytes(int64_t delta) {
  buffer_bytes_ = static_cast<size_t>(static_cast<int64_t>(buffer_bytes_) +
                                      delta);
  peak_buffer_bytes_ = std::max(peak_buffer_bytes_, buffer_bytes_);
}

}  // namespace dspot
