#include "common/thread_pool.h"

#include "common/status.h"

namespace taste {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // Workers leave only once the queue is empty, so admitted tasks still run.
  for (auto& t : threads_) t.join();
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  TASTE_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() + running_ >= threads_.size()) return false;
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return queue_.empty() && running_ == 0 && completing_ == 0;
  });
}

void ThreadPool::NotifyIfIdleLocked() {
  if (queue_.empty() && running_ == 0 && completing_ == 0) {
    idle_cv_.notify_all();
  }
}

void ThreadPool::SetTaskCompleteCallback(std::function<void()> callback) {
  std::lock_guard<std::mutex> lock(mu_);
  TASTE_CHECK_MSG(queue_.empty() && running_ == 0 && completing_ == 0,
                  "SetTaskCompleteCallback with tasks in flight");
  task_complete_callback_ = std::move(callback);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    std::function<void()> on_complete;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      on_complete = task_complete_callback_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      if (on_complete) ++completing_;
      NotifyIfIdleLocked();
    }
    // Invoked after the slot is free and without pool locks, so the
    // callback may acquire scheduler locks safely. WaitIdle() waits for it.
    if (on_complete) {
      on_complete();
      std::lock_guard<std::mutex> lock(mu_);
      --completing_;
      NotifyIfIdleLocked();
    }
  }
}

}  // namespace taste
