// ThreadPool: a small fixed-size worker pool for deterministic data-parallel
// scans and asynchronous task submission.
//
// Two primitives share one FIFO queue of workers:
//
//   - ParallelFor: "evaluate f over the index range [0, n) in chunks, with
//     every chunk writing to its own output slots" — candidate
//     marginal-benefit re-evaluation, posting-list refiltering. That shape is
//     deterministic by construction: chunk boundaries depend only on n and
//     the chunk size, never on scheduling, so a 1-thread and an N-thread run
//     produce byte-identical results. Each call tracks its own batch, so
//     concurrent ParallelFor calls (and Submit tasks) never wait on each
//     other's work.
//
//   - Submit: fire-and-forget asynchronous tasks, the primitive the serve
//     layer's SolveScheduler dispatches whole solve jobs through. Completion
//     is the caller's business (the scheduler uses promises/futures).
//
// A pool constructed with num_threads <= 1 spawns no threads at all and runs
// every ParallelFor — and every Submit — inline on the calling thread;
// callers can therefore create one unconditionally and let configuration
// decide whether parallelism happens.

#ifndef SCWSC_COMMON_THREAD_POOL_H_
#define SCWSC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"

namespace scwsc {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (itself clamped to at least 1). A pool of size 1 spawns no workers.
  explicit ThreadPool(unsigned num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains every queued task (Submit and in-flight ParallelFor chunks
  /// alike), then joins the workers.
  ~ThreadPool();

  /// Number of execution lanes (workers, or 1 for the inline pool).
  unsigned size() const { return size_; }

  /// Resolves the num_threads convention (0 = hardware concurrency) without
  /// constructing a pool.
  static unsigned ResolveThreads(unsigned num_threads);

  /// Splits [0, n) into contiguous chunks of at least `min_chunk` indices and
  /// runs fn(chunk_begin, chunk_end) for each, blocking until all chunks are
  /// done. Chunks must be independent: fn may only write state owned by its
  /// own index range. Runs inline when the pool has one lane or n is small.
  ///
  /// An exception escaping fn (on any lane, including the inline path) is
  /// captured and surfaced as Status::Internal carrying the first exception's
  /// what(); the remaining chunks of the batch still run to completion, the
  /// pool stays usable, and no exception ever reaches a worker's top frame.
  Status ParallelFor(std::size_t n, std::size_t min_chunk,
                     const std::function<void(std::size_t, std::size_t)>& fn);

  /// Enqueues one asynchronous task; workers pick tasks up in FIFO order.
  /// On a pool with no workers (size() <= 1) the task runs inline before
  /// Submit returns, so serial configurations stay deterministic. The task
  /// must not throw — wrap fallible work in its own Status plumbing (the
  /// scheduler routes errors through per-job promises).
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  unsigned size_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for tasks
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
};

}  // namespace scwsc

#endif  // SCWSC_COMMON_THREAD_POOL_H_
