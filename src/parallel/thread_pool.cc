#include "parallel/thread_pool.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <utility>

#include "obs/metrics.h"

namespace dspot {

namespace {

/// Identifies the worker the current thread belongs to (if any), so
/// Submit can push to the local deque and PopTask can skip self-steals.
struct WorkerBinding {
  ThreadPool* pool = nullptr;
  size_t index = 0;
};
thread_local WorkerBinding tls_binding;

/// What ThreadPool::Current() reports: a worker's pool for good, or the
/// pool of the task RunOneTask is running on some other thread.
thread_local ThreadPool* tls_current = nullptr;

/// Points tls_current at `pool` for one task and restores it after.
class CurrentPoolScope {
 public:
  explicit CurrentPoolScope(ThreadPool* pool) : outer_(tls_current) {
    tls_current = pool;
  }
  ~CurrentPoolScope() { tls_current = outer_; }
  CurrentPoolScope(const CurrentPoolScope&) = delete;
  CurrentPoolScope& operator=(const CurrentPoolScope&) = delete;

 private:
  ThreadPool* outer_;
};

constexpr size_t kNoWorker = static_cast<size_t>(-1);

}  // namespace

size_t EffectiveNumThreads(size_t num_threads) {
  if (num_threads != 0) {
    return std::min(num_threads, ThreadPool::kMaxWorkers);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min<size_t>(hw, ThreadPool::kMaxWorkers);
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = EffectiveNumThreads(num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Every deque exists before any worker (or thief) can look for one.
  for (size_t i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    // Empty critical section: a worker that just found its queues empty
    // either has not yet entered wait (and will re-check stop_ under
    // sleep_mu_) or is already parked and gets the notification.
    std::lock_guard<std::mutex> lk(sleep_mu_);
  }
  wake_cv_.notify_all();
  for (const std::unique_ptr<Worker>& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  pending_.fetch_add(1, std::memory_order_release);
  if (tls_binding.pool == this) {
    Worker& self = *workers_[tls_binding.index];
    std::lock_guard<std::mutex> lk(self.mu);
    self.tasks.push_back(std::move(task));
  } else {
    std::lock_guard<std::mutex> lk(inject_mu_);
    inject_.push_back(std::move(task));
  }
  {
    // Pairs with the sleeper's predicate check; see ~ThreadPool.
    std::lock_guard<std::mutex> lk(sleep_mu_);
  }
  wake_cv_.notify_one();
}

bool ThreadPool::PopTask(size_t self, std::function<void()>* task) {
  if (pending_.load(std::memory_order_acquire) == 0) {
    return false;
  }
  const size_t n = num_workers();
  // Own deque first (bottom = LIFO: the task most recently submitted by
  // this worker, typically the hottest in cache).
  if (self != kNoWorker) {
    Worker& w = *workers_[self];
    std::lock_guard<std::mutex> lk(w.mu);
    if (!w.tasks.empty()) {
      *task = std::move(w.tasks.back());
      w.tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  // Shared inject queue (external submissions).
  {
    std::lock_guard<std::mutex> lk(inject_mu_);
    if (!inject_.empty()) {
      *task = std::move(inject_.front());
      inject_.pop_front();
      pending_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  // Steal round-robin, oldest task first (top of the victim's deque).
  const size_t start = (self == kNoWorker) ? 0 : self + 1;
  for (size_t k = 0; k < n; ++k) {
    const size_t victim = (start + k) % n;
    if (victim == self) continue;
    Worker& w = *workers_[victim];
    std::lock_guard<std::mutex> lk(w.mu);
    if (!w.tasks.empty()) {
      *task = std::move(w.tasks.front());
      w.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  return false;
}

bool ThreadPool::RunOneTask() {
  const size_t self =
      (tls_binding.pool == this) ? tls_binding.index : kNoWorker;
  std::function<void()> task;
  if (!PopTask(self, &task)) {
    return false;
  }
  {
    const CurrentPoolScope scope(this);
    DSPOT_SPAN("pool.task");
    DSPOT_COUNT("pool.tasks_executed", 1);
    task();
  }
  return true;
}

void ThreadPool::WorkerLoop(size_t index) {
  tls_binding = {this, index};
  tls_current = this;
  for (;;) {
    std::function<void()> task;
    if (PopTask(index, &task)) {
      {
        DSPOT_SPAN("pool.task");
        DSPOT_COUNT("pool.tasks_executed", 1);
        task();
      }
      task = nullptr;  // release captures before sleeping
      continue;
    }
    std::unique_lock<std::mutex> lk(sleep_mu_);
    wake_cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

ThreadPool& ThreadPool::Shared(size_t num_threads) {
  // Intentionally leaked: joining workers during static destruction races
  // with other exit-time teardown; parked threads are reaped by process
  // exit instead.
  struct Pools {
    std::mutex mu;
    std::array<ThreadPool*, kMaxWorkers + 1> by_threads{};
  };
  static Pools* pools = new Pools;
  const size_t n = std::max<size_t>(EffectiveNumThreads(num_threads), 2);
  std::lock_guard<std::mutex> lk(pools->mu);
  ThreadPool*& pool = pools->by_threads[n];
  if (pool == nullptr) {
    pool = new ThreadPool(n - 1);
  }
  return *pool;
}

ThreadPool* ThreadPool::Current() { return tls_current; }

TaskGroup::~TaskGroup() { WaitNoThrow(); }

void TaskGroup::Run(std::function<void()> fn) {
  if (pool_ == nullptr) {
    if (cancel_.cancelled()) {
      return;  // pending work is dropped once the token fires
    }
    std::exception_ptr error;
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    if (error) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!first_error_) first_error_ = error;
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++pending_;
  }
  pool_->Submit([this, fn = std::move(fn)] {
    std::exception_ptr error;
    // Checked at dequeue time: tasks that were still queued when the
    // token fired never start, so cancellation drains the backlog
    // immediately instead of running it.
    if (!cancel_.cancelled()) {
      try {
        fn();
      } catch (...) {
        error = std::current_exception();
      }
    }
    std::lock_guard<std::mutex> lk(mu_);
    if (error && !first_error_) first_error_ = error;
    if (--pending_ == 0) cv_.notify_all();
  });
}

void TaskGroup::WaitNoThrow() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (pending_ == 0) return;
    }
    if (pool_ != nullptr && pool_->RunOneTask()) {
      continue;
    }
    // Every queue is empty but tasks of this group are still running on
    // other threads. Park until the group drains; the timeout re-arms the
    // helping loop in case one of those tasks spawns new work that only
    // this thread is free to pick up.
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, std::chrono::milliseconds(1),
                 [this] { return pending_ == 0; });
    if (pending_ == 0) return;
  }
}

void TaskGroup::Wait() {
  WaitNoThrow();
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lk(mu_);
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace dspot
