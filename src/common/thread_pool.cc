#include "src/common/thread_pool.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace scwsc {

unsigned ThreadPool::ResolveThreads(unsigned num_threads) {
  if (num_threads != 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned num_threads)
    : size_(ResolveThreads(num_threads)) {
  if (size_ <= 1) return;
  workers_.reserve(size_);
  for (unsigned t = 0; t < size_; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping with no work left
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {  // inline pool: run now, deterministically
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

namespace {

/// Runs fn(begin, end), converting any escaping exception into the error
/// string the batch reports. Returns true on success.
bool RunChunk(const std::function<void(std::size_t, std::size_t)>& fn,
              std::size_t begin, std::size_t end, std::string& error) {
  try {
    fn(begin, end);
    return true;
  } catch (const std::exception& e) {
    error = std::string("ParallelFor task threw: ") + e.what();
  } catch (...) {
    error = "ParallelFor task threw a non-standard exception";
  }
  return false;
}

}  // namespace

Status ThreadPool::ParallelFor(
    std::size_t n, std::size_t min_chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return Status::OK();
  min_chunk = std::max<std::size_t>(min_chunk, 1);
  // Inline when there is nothing to gain: one lane, or too little work to
  // fill two chunks.
  if (size_ <= 1 || n < 2 * min_chunk) {
    std::string error;
    if (!RunChunk(fn, 0, n, error)) return Status::Internal(std::move(error));
    return Status::OK();
  }
  // Aim for a few chunks per lane so uneven chunk costs still balance, but
  // never below min_chunk indices per chunk.
  const std::size_t target_chunks =
      std::min<std::size_t>(static_cast<std::size_t>(size_) * 4,
                            (n + min_chunk - 1) / min_chunk);
  const std::size_t chunk = (n + target_chunks - 1) / target_chunks;

  // Per-call batch bookkeeping: ParallelFor blocks until its own chunks
  // drain, so these locals outlive every task referencing them — and a
  // concurrent Submit task or second ParallelFor never perturbs the wait.
  struct Batch {
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t remaining = 0;
    std::string first_error;
  } batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      const std::size_t end = std::min(begin + chunk, n);
      tasks_.push_back([&fn, begin, end, &batch] {
        std::string error;
        const bool ok = RunChunk(fn, begin, end, error);
        std::lock_guard<std::mutex> batch_lock(batch.mu);
        if (!ok && batch.first_error.empty()) {
          batch.first_error = std::move(error);
        }
        if (--batch.remaining == 0) batch.done_cv.notify_all();
      });
      ++batch.remaining;
    }
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(batch.mu);
  batch.done_cv.wait(lock, [&batch] { return batch.remaining == 0; });
  if (!batch.first_error.empty()) {
    return Status::Internal(std::move(batch.first_error));
  }
  return Status::OK();
}

}  // namespace scwsc
