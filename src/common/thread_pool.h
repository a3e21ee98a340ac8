// Fixed-size worker thread pool with bounded admission.
//
// Used by the pipeline scheduler (Algorithm 1 of the paper), whose two
// stage pools TP1 (prep) and TP2 (inference) dispatch a stage only when a
// worker is free. TrySubmit() admits a task only in that case instead of
// queueing without limit, so overload surfaces at the submission edge where
// the caller can shed load (DESIGN.md §8). Completion is observed through
// the task-complete callback and WaitIdle(); the destructor drains the
// tasks already admitted and joins every worker.

#ifndef TASTE_COMMON_THREAD_POOL_H_
#define TASTE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace taste {

/// A simple fixed-size thread pool.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  /// Runs every task already admitted, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Bounded admission: enqueues `task` only when fewer than size() tasks
  /// are queued or running, so it starts on a free worker, and returns
  /// true. Otherwise returns false and the task is NOT queued; the caller
  /// decides whether to shed, retry, or wait for a slot (Algorithm 1's
  /// "pool is full").
  bool TrySubmit(std::function<void()> task);

  /// Number of worker threads.
  size_t size() const { return threads_.size(); }

  /// Blocks until all submitted tasks have completed and every
  /// task-complete callback they triggered has returned, so state the
  /// callback captured may be destroyed once WaitIdle returns.
  void WaitIdle();

  /// Registers a callback invoked after EVERY task completes and its slot
  /// has been released (a TrySubmit from the callback finds room). Called
  /// with no pool locks held, so it may take arbitrary locks of its own.
  /// Schedulers that gate dispatch on TrySubmit need this to observe slot
  /// releases. Must be set (or replaced, or cleared with nullptr) while the
  /// pool is idle, e.g. right after WaitIdle().
  void SetTaskCompleteCallback(std::function<void()> callback);

 private:
  void WorkerLoop();
  /// Wakes WaitIdle() once nothing is queued, running or completing.
  /// Requires mu_.
  void NotifyIfIdleLocked();

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  size_t running_ = 0;
  size_t completing_ = 0;  // task-complete callbacks still running
  bool stop_ = false;
  std::function<void()> task_complete_callback_;
  std::vector<std::thread> threads_;
};

}  // namespace taste

#endif  // TASTE_COMMON_THREAD_POOL_H_
