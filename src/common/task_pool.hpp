// Small reusable task pool for the detection epoch.
//
// The detector's interval close runs its independent pieces (forecaster
// steps, the first-byte subtrees of the reversal searches) as tasks on this
// pool and joins with wait_idle() at each dependency barrier. An unbudgeted
// reversal search takes one long-lived drainer task per worker, which pulls
// subtrees from a shared cursor (run_split_searches in
// sketch/reverse_inference.hpp). Unlike the recording path's
// ShardedRecorder (whose workers own SPSC rings and live for the pipeline's
// lifetime), epoch tasks are coarse and few, so a plain mutex+condvar queue
// is plenty. Under the double-buffered pipeline (detect/overlapped.hpp) the
// same policy sizes the pool that merges the sealed shard replicas, and the
// epoch for interval N runs on this pool WHILE interval N+1 records; the
// pool's workers occupy the interval's otherwise-idle close-time slots, and
// the budgeted streaming-inference searches yield between chunks (see
// pending()) so a small pool still interleaves all three inferences.
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

  /// The pool-size policy for a configured epoch_threads value: nonzero is
  /// taken as given, 0 means one worker per hardware thread, capped at 8.
  /// The detector's epoch pool and the pipeline's shard-merge pool both
  /// size themselves with it.
  static std::size_t resolve_threads(std::size_t configured);

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

  /// Tasks queued but not yet picked up by a worker (always 0 in inline
  /// mode). A point-in-time hint, not a synchronization primitive: chunked
  /// long-running tasks (the streaming-inference drivers) use it to decide
  /// whether to yield their slot — re-enqueue their continuation so a
  /// waiting task can interleave — or keep running on an otherwise idle
  /// pool. The decision affects only scheduling, never results.
  std::size_t pending() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

 private:
  void worker_loop();
  void record_exception(std::exception_ptr e);

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_{0};
  std::exception_ptr first_error_;
  bool stopping_{false};
  std::vector<std::thread> workers_;
};

}  // namespace hifind
