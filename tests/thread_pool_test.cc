#include "src/common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "gtest/gtest.h"

namespace scwsc {
namespace {

TEST(ThreadPoolTest, ResolveThreadsMapsZeroToHardware) {
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(7), 7u);
}

TEST(ThreadPoolTest, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  bool ran = false;
  std::thread::id ran_on;
  pool.Submit([&] {
    ran = true;
    ran_on = std::this_thread::get_id();
  });
  // The task ran before Submit returned, on the submitting thread.
  EXPECT_TRUE(ran);
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, DestructorRunsEveryQueuedTask) {
  std::atomic<int> done{0};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::thread opener;
  {
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    // Occupy every lane so the tasks below are still queued when the
    // destructor starts.
    for (int lane = 0; lane < 3; ++lane) {
      pool.Submit([gate, &done] {
        gate.wait();
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
    for (int task = 0; task < 40; ++task) {
      pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    opener = std::thread([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.set_value();
    });
  }  // blocks until the gate opens, then drains the 40 queued tasks
  opener.join();
  EXPECT_EQ(done.load(), 43);
}

}  // namespace
}  // namespace scwsc
