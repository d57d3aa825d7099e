#include "src/common/thread_pool.h"

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

}  // namespace scwsc
