// Fixed-size worker thread pool with a bounded view of in-flight work.
//
// Used by the pipeline scheduler (Algorithm 1 of the paper), which needs to
// ask "is the pool full?" before dispatching the next eligible stage, and by
// tests that exercise concurrent behaviour. Tasks are arbitrary
// std::function<void()>; completion can be awaited per-task via the returned
// future or globally via WaitIdle().
//
// Admission control: TrySubmit() admits a task only when a worker is free
// instead of queueing without limit, so overload surfaces at the
// submission edge where the caller can shed load (DESIGN.md §8).
// Shutdown(drain_pending) tears the pool down gracefully: either draining
// the queue or discarding it, then joining — teardown under cancellation
// never aborts the process.

#ifndef TASTE_COMMON_THREAD_POOL_H_
#define TASTE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace taste {

/// A simple fixed-size thread pool.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future completed when the task finishes.
  /// Unbounded — never refuses (asserts the pool is not shut down).
  std::future<void> Submit(std::function<void()> task);

  /// Bounded admission: enqueues only when the pool is not Full() and not
  /// shut down, so the task starts on a free worker; otherwise returns
  /// nullopt and the task is NOT queued. The caller decides whether to
  /// shed, retry, or block.
  std::optional<std::future<void>> TrySubmit(std::function<void()> task);

  /// True when every worker is busy AND no free capacity remains, i.e.
  /// (queued + running) >= size(). The pipeline scheduler uses this as the
  /// "pool is full" predicate of Algorithm 1.
  bool Full() const;

  /// Number of worker threads.
  size_t size() const { return threads_.size(); }

  /// Number of tasks queued or currently executing.
  size_t InFlight() const;

  /// Blocks until all submitted tasks have completed and every
  /// task-complete callback they triggered has returned, so state the
  /// callback captured may be destroyed once WaitIdle returns.
  void WaitIdle();

  /// Stops the pool and joins every worker. With `drain_pending` (the
  /// default, also what the destructor does) queued tasks still run to
  /// completion first; without it the queue is discarded — the promises of
  /// discarded tasks are abandoned (their futures see broken_promise), but
  /// the process never aborts. Idempotent; safe to call concurrently with
  /// completions. Submit/TrySubmit after Shutdown: Submit asserts,
  /// TrySubmit returns nullopt.
  void Shutdown(bool drain_pending = true);

  /// Registers a callback invoked after EVERY task completes and its slot
  /// has been released (i.e. Full() can have become false). Called with no
  /// pool locks held, so it may take arbitrary locks of its own. Schedulers
  /// that gate dispatch on Full() need this to observe slot releases.
  /// Must be set (or replaced, or cleared with nullptr) while the pool is
  /// idle, e.g. right after WaitIdle().
  void SetTaskCompleteCallback(std::function<void()> callback);

 private:
  struct Item {
    std::function<void()> fn;
    std::promise<void> done;
  };

  void WorkerLoop();
  /// Wakes WaitIdle() once nothing is queued, running or completing.
  /// Requires mu_.
  void NotifyIfIdleLocked();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Item> queue_;
  size_t running_ = 0;
  size_t completing_ = 0;  // task-complete callbacks still running
  bool stop_ = false;
  std::mutex join_mu_;  // serializes Shutdown()'s join phase
  bool joined_ = false;  // guarded by join_mu_
  std::function<void()> task_complete_callback_;
  std::vector<std::thread> threads_;
};

}  // namespace taste

#endif  // TASTE_COMMON_THREAD_POOL_H_
