// TaskPool contract: inline mode runs tasks on the caller, wait_idle() joins
// every submitted task and rethrows the first task error exactly once, the
// pool keeps working after an error, and a worker pool runs every task
// exactly once. Runs under the ASan+UBSan and TSan CI jobs.
#include "common/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace hifind {
namespace {

/// Runs wait_idle() and returns the message it rethrew ("" if none).
std::string wait_idle_error(TaskPool& pool) {
  try {
    pool.wait_idle();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TaskPool, InlineModeRunsTasksOnTheCaller) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}}) {
    TaskPool pool(threads);
    EXPECT_EQ(pool.threads(), 0u) << threads;
    std::thread::id ran_on;
    pool.submit([&] { ran_on = std::this_thread::get_id(); });
    // Inline: the task has already run when submit() returns.
    EXPECT_EQ(ran_on, std::this_thread::get_id()) << threads;
    pool.wait_idle();
  }
}

TEST(TaskPool, WaitIdleWithNothingQueuedReturnsAtOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    TaskPool pool(threads);
    pool.wait_idle();
    pool.wait_idle();
    // And again once a round of tasks has been joined.
    pool.submit([] {});
    pool.wait_idle();
    pool.wait_idle();
  }
}

TEST(TaskPool, FirstTaskErrorWinsAndIsRethrownOnce) {
  // Inline mode fixes the order in which the tasks fail.
  TaskPool pool(1);
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::runtime_error("second"); });
  EXPECT_EQ(wait_idle_error(pool), "first");
  EXPECT_EQ(wait_idle_error(pool), "");
}

TEST(TaskPool, WorkerErrorIsRethrownOnce) {
  TaskPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.submit([] { throw std::runtime_error("task"); });
  }
  EXPECT_EQ(wait_idle_error(pool), "task");
  EXPECT_EQ(wait_idle_error(pool), "");
}

TEST(TaskPool, KeepsWorkingAfterAnError) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    TaskPool pool(threads);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_EQ(wait_idle_error(pool), "boom") << threads;
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) pool.submit([&] { ++ran; });
    EXPECT_EQ(wait_idle_error(pool), "") << threads;
    EXPECT_EQ(ran.load(), 16) << threads;
  }
}

TEST(TaskPool, WorkersRunEveryTaskExactlyOnce) {
  constexpr std::size_t kTasks = 2000;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    TaskPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    const std::thread::id caller = std::this_thread::get_id();
    // Two rounds: the pool is reused across wait_idle() barriers.
    for (int round = 0; round < 2; ++round) {
      const auto runs = std::make_unique<std::atomic<int>[]>(kTasks);
      std::atomic<int> on_caller{0};
      for (std::size_t i = 0; i < kTasks; ++i) {
        pool.submit([&, i] {
          ++runs[i];
          if (std::this_thread::get_id() == caller) ++on_caller;
        });
      }
      pool.wait_idle();
      for (std::size_t i = 0; i < kTasks; ++i) {
        ASSERT_EQ(runs[i].load(), 1) << "task " << i << ", " << threads;
      }
      EXPECT_EQ(on_caller.load(), 0) << threads;
    }
  }
}

}  // namespace
}  // namespace hifind
