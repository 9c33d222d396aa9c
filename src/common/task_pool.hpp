// Small reusable task pool for the detection epoch.
//
// The detector's interval close runs its independent pieces (forecaster
// steps, the reversal searches) as tasks on this pool and joins with
// wait_idle() at each dependency barrier. A budgeted or compact search is one
// task that runs it to completion; an unbudgeted reversible search takes one
// long-lived drainer task per worker, which pulls first-byte subtrees from a
// shared cursor (run_split_searches in sketch/reverse_inference.hpp). Unlike
// the recording path's ShardedRecorder (whose workers own SPSC rings and
// live for the pipeline's lifetime), epoch tasks are coarse and few, so a
// plain mutex+condvar queue is plenty. Each pipeline has one such pool, the
// detector's (HifindDetector::pool()): under the double-buffered pipeline
// (detect/overlapped.hpp) the epoch thread first merges the sealed shard
// replicas on it, then runs the epoch for interval N on it WHILE interval
// N+1 records.
//
// Determinism: the pool imposes no ordering between queued tasks, so callers
// must make tasks write to disjoint result slots and sequence any dependent
// reads after wait_idle(). Under that discipline results are independent of
// scheduling, and with bit-identical task arithmetic the parallel epoch's
// output is bit-identical to the serial one (tested).
//
// threads <= 1 means "inline": submit() runs the task on the calling thread
// and no workers are spawned — the degenerate case is the serial epoch.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hifind {

class TaskPool {
 public:
  /// Spawns `threads` workers (0 or 1 = inline mode, no workers).
  explicit TaskPool(std::size_t threads);

  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues a task (runs it immediately in inline mode). A task that
  /// throws has its exception captured and rethrown from the next
  /// wait_idle() — first one wins, the rest are dropped.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first captured task exception, if any.
  void wait_idle();

  /// Worker count (0 in inline mode).
  std::size_t threads() const { return workers_.size(); }

 private:
  void worker_loop();
  void record_exception(std::exception_ptr e);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_{0};
  std::exception_ptr first_error_;
  bool stopping_{false};
  std::vector<std::thread> workers_;
};

}  // namespace hifind
