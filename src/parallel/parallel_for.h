#ifndef DSPOT_PARALLEL_PARALLEL_FOR_H_
#define DSPOT_PARALLEL_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "parallel/thread_pool.h"

namespace dspot {

/// Tuning knobs for the parallel loops below.
struct ParallelOptions {
  /// Threads to use, the calling thread included: 0 = hardware
  /// concurrency, 1 = run serially on the calling thread (no pool
  /// involvement at all).
  size_t num_threads = 0;
  /// Minimum indices per task. Raising it trades load balance for lower
  /// scheduling overhead and larger per-task scratch reuse; a loop whose
  /// whole range fits in one grain runs inline.
  size_t grain = 1;
  /// Cooperative cancellation: once the token fires, runners stop
  /// claiming blocks (already-running block invocations finish) and the
  /// loop returns early, leaving unclaimed indices unprocessed. Inert by
  /// default. Long-running `fn` bodies should poll the same token.
  CancellationToken cancel;
};

/// Runs `fn(begin, end)` over a partition of [0, n) into contiguous
/// blocks of at least `options.grain` indices. Blocks are claimed by at
/// most `num_threads` concurrent runners through a shared atomic cursor
/// (self-scheduling), so skewed block costs rebalance automatically. Each
/// `fn` invocation covers one block; a runner invokes it for several
/// blocks in sequence, so per-invocation scratch is amortized over `grain`
/// indices.
///
/// Thread bound: a region runs on ThreadPool::Shared(num_threads), whose
/// num_threads - 1 workers and the waiting caller make num_threads
/// threads. A region started inside a pool task (a nested region) runs on
/// that task's pool instead, so it adds no threads to the region around
/// it, whatever thread counts earlier regions in the process used.
///
/// Determinism contract: `fn` must write only to slots derived from its
/// indices (and read only shared immutable state); then the aggregate
/// result is bit-identical for every `num_threads`, because each index is
/// processed exactly once and lands in the same slot regardless of which
/// thread claims it. Blocking calls inside `fn` may execute other queued
/// tasks on this thread (nested parallel sections do this by design).
template <typename BlockFn>
void ParallelForBlocks(size_t n, const ParallelOptions& options,
                       const BlockFn& fn) {
  if (n == 0) {
    return;
  }
  const size_t threads = EffectiveNumThreads(options.num_threads);
  const size_t grain = std::max<size_t>(options.grain, 1);
  if (options.cancel.cancelled()) {
    return;
  }
  if (threads <= 1 || n <= grain) {
    fn(0, n);
    return;
  }
  // ~4 blocks per runner keeps the tail short without shredding the range
  // below the grain size.
  const size_t target_blocks = threads * 4;
  const size_t block_size =
      std::max(grain, (n + target_blocks - 1) / target_blocks);
  const size_t blocks = (n + block_size - 1) / block_size;
  const size_t runners = std::min(threads, blocks);

  ThreadPool* pool = ThreadPool::Current();
  if (pool == nullptr) {
    pool = &ThreadPool::Shared(threads);
  }
  std::atomic<size_t> next_block{0};
  // Cancellation-aware group: runners not yet started are dropped at
  // dequeue time, and started runners re-check the token before each
  // block claim, so a cancelled loop drains within one block.
  TaskGroup group(pool, options.cancel);
  for (size_t r = 0; r < runners; ++r) {
    group.Run([&next_block, &fn, &options, n, blocks, block_size] {
      for (;;) {
        if (options.cancel.cancelled()) {
          return;
        }
        const size_t b = next_block.fetch_add(1, std::memory_order_relaxed);
        if (b >= blocks) {
          return;
        }
        const size_t begin = b * block_size;
        fn(begin, std::min(n, begin + block_size));
      }
    });
  }
  group.Wait();
}

/// Runs `fn(i)` for every i in [0, n). See ParallelForBlocks for the
/// scheduling and determinism contract.
template <typename Fn>
void ParallelFor(size_t n, const ParallelOptions& options, const Fn& fn) {
  ParallelForBlocks(n, options, [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      fn(i);
    }
  });
}

/// Maps `fn(i) -> StatusOr<T>` over [0, n) in parallel and keeps every
/// per-index outcome: slot i holds fn(i)'s StatusOr verbatim, so callers
/// can report the lowest failing index as a serial loop would, or skip
/// and report failures without losing partial work. Indices skipped by a
/// cancelled token (see ParallelOptions::cancel) come back as
/// Status::Cancelled in their slots. Slot contents are bit-identical at
/// any thread count (see ParallelForBlocks).
template <typename T, typename Fn>
std::vector<StatusOr<T>> ParallelTryMap(size_t n,
                                        const ParallelOptions& options,
                                        const Fn& fn) {
  std::vector<StatusOr<T>> slots;
  slots.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    slots.emplace_back(Status::Cancelled("ParallelTryMap: index not run"));
  }
  ParallelFor(n, options, [&slots, &fn](size_t i) { slots[i] = fn(i); });
  return slots;
}

}  // namespace dspot

#endif  // DSPOT_PARALLEL_PARALLEL_FOR_H_
