#ifndef DSPOT_PARALLEL_THREAD_POOL_H_
#define DSPOT_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "guard/guard.h"

namespace dspot {

/// Number of worker threads implied by `num_threads == 0` (the hardware
/// concurrency, with a floor of 1 when the runtime cannot report it).
size_t EffectiveNumThreads(size_t num_threads);

/// A fixed-size work-stealing thread pool.
///
/// Each worker owns a deque in the Chase-Lev discipline: the owner pushes
/// and pops at the bottom (LIFO, cache-friendly for nested fan-out) while
/// thieves steal from the top (FIFO, oldest-first). The deques are guarded
/// by small per-worker mutexes rather than lock-free operations — steals
/// are rare for the coarse fitting tasks this pool runs, and the mutexes
/// keep the implementation obviously correct under ThreadSanitizer. Idle
/// workers park on a condition variable and are woken on submission.
///
/// Determinism contract: the pool schedules tasks in an unspecified order,
/// so callers that need reproducible results must make tasks independent
/// and write results into pre-assigned slots (see ParallelFor /
/// ParallelTryMap in parallel_for.h, which layer exactly that discipline
/// on top).
///
/// Threads blocked waiting for a set of tasks should help drain the pool
/// via RunOneTask() (TaskGroup::Wait does this), which makes nested
/// parallel sections deadlock-free even on a single-worker pool.
class ThreadPool {
 public:
  /// Hard cap on thread counts; requests beyond it are clamped.
  static constexpr size_t kMaxWorkers = 64;

  /// Starts `num_threads` workers (0 = hardware concurrency).
  explicit ThreadPool(size_t num_threads = 0);

  /// Joins all workers. Outstanding tasks submitted before destruction are
  /// drained first; submitting during destruction is a usage error.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Enqueues `task`. Called from a pool worker, the task lands on that
  /// worker's own deque (bottom); called from any other thread, it lands
  /// on the shared inject queue.
  void Submit(std::function<void()> task);

  /// Runs one queued task on the calling thread, if any task is queued
  /// anywhere (own deque, inject queue, or stolen from another worker).
  /// Returns false when every queue was empty. Safe to call from any
  /// thread; this is the "help while waiting" primitive.
  bool RunOneTask();

  /// The process-wide pool for parallel regions of `num_threads` threads
  /// (0 = hardware concurrency, at least 2): num_threads - 1 workers, since
  /// the thread that starts a region runs its tasks too while it waits.
  /// One pool per thread count, created on first use and never destroyed,
  /// so worker threads outlive static teardown safely.
  static ThreadPool& Shared(size_t num_threads);

  /// The pool whose task the calling thread is running: its own pool on a
  /// worker, the task's pool inside RunOneTask on any other thread, and
  /// null otherwise. ParallelFor runs a region started there on this pool,
  /// so a nested region adds no threads to the one it runs in.
  static ThreadPool* Current();

 private:
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;  // bottom = back, top = front
    std::thread thread;
  };

  void WorkerLoop(size_t index);

  /// Dequeues one task: `self` (own deque, pass kNpos for non-workers),
  /// then the inject queue, then steals round-robin from the others.
  bool PopTask(size_t self, std::function<void()>* task);

  /// Filled before the first worker starts and never changed after.
  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex inject_mu_;
  std::deque<std::function<void()>> inject_;

  /// Queued-but-unclaimed task count; lets sleepers check for work without
  /// taking every deque mutex.
  std::atomic<size_t> pending_{0};
  std::mutex sleep_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
};

/// A fan-out/join scope for irregular task sets: Run() submits tasks to
/// the pool (or runs them inline when constructed without one), Wait()
/// blocks until all of them finished, helping the pool drain in the
/// meantime. The first exception thrown by any task is captured and
/// rethrown from Wait(); later exceptions are dropped. Status-returning
/// work should aggregate through ParallelTryMap instead, which keeps every
/// index's status in its slot (deterministically).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool = nullptr) : pool_(pool) {}

  /// Cancellation-aware group: once `cancel` fires, tasks that have not
  /// yet *started* are dropped at dequeue time (they still count as
  /// finished for Wait()), so a cancelled fan-out drains in the time it
  /// takes the in-flight tasks to notice the token — not the time it
  /// would take to run the whole backlog. In-flight tasks are expected to
  /// poll the same token cooperatively.
  TaskGroup(ThreadPool* pool, CancellationToken cancel)
      : pool_(pool), cancel_(std::move(cancel)) {}

  /// Waits for stragglers, but swallows their exceptions — call Wait()
  /// explicitly on every success path.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits `fn`; runs it inline when the group has no pool.
  void Run(std::function<void()> fn);

  /// Blocks until every task submitted so far has finished. The calling
  /// thread executes queued tasks while it waits, so nested groups cannot
  /// deadlock. Rethrows the first captured exception.
  void Wait();

 private:
  void WaitNoThrow();

  ThreadPool* pool_;
  CancellationToken cancel_;  // inert unless the two-arg ctor was used
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_ = 0;              // guarded by mu_
  std::exception_ptr first_error_;  // guarded by mu_
};

}  // namespace dspot

#endif  // DSPOT_PARALLEL_THREAD_POOL_H_
