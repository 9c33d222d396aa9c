#include "common/task_pool.hpp"

#include <algorithm>
#include <utility>

namespace hifind {

TaskPool::TaskPool(std::size_t threads) {
  if (threads <= 1) return;  // inline mode
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

std::size_t TaskPool::resolve_threads(std::size_t configured) {
  if (configured != 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(hw == 0 ? 1 : hw, 8);
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void TaskPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    try {
      task();
    } catch (...) {
      record_exception(std::current_exception());
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_ready_.notify_one();
}

void TaskPool::wait_idle() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return in_flight_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void TaskPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      record_exception(std::current_exception());
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

void TaskPool::record_exception(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!first_error_) first_error_ = std::move(e);
}

}  // namespace hifind
