// ThreadPool: a small fixed-size worker pool for asynchronous task
// submission — the primitive the serve layer's SolveScheduler dispatches
// whole solve jobs through. Workers take tasks from one FIFO queue;
// completion is the caller's business (the scheduler uses
// promises/futures).
//
// A pool constructed with num_threads <= 1 spawns no threads at all and runs
// every Submit inline on the calling thread; callers can therefore create
// one unconditionally and let configuration decide whether parallelism
// happens.

#ifndef SCWSC_COMMON_THREAD_POOL_H_
#define SCWSC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace scwsc {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (itself clamped to at least 1). A pool of size 1 spawns no workers.
  explicit ThreadPool(unsigned num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  /// Number of execution lanes (workers, or 1 for the inline pool).
  unsigned size() const { return size_; }

  /// Resolves the num_threads convention (0 = hardware concurrency) without
  /// constructing a pool.
  static unsigned ResolveThreads(unsigned num_threads);

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
