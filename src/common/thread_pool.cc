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

ThreadPool::~ThreadPool() { Shutdown(/*drain_pending=*/true); }

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  TASTE_CHECK(task != nullptr);
  Item item;
  item.fn = std::move(task);
  std::future<void> fut = item.done.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    TASTE_CHECK_MSG(!stop_, "Submit after shutdown");
    queue_.push_back(std::move(item));
  }
  cv_.notify_one();
  return fut;
}

std::optional<std::future<void>> ThreadPool::TrySubmit(
    std::function<void()> task) {
  TASTE_CHECK(task != nullptr);
  Item item;
  item.fn = std::move(task);
  std::future<void> fut = item.done.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || queue_.size() + running_ >= threads_.size()) {
      return std::nullopt;
    }
    queue_.push_back(std::move(item));
  }
  cv_.notify_one();
  return fut;
}

bool ThreadPool::Full() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + running_ >= threads_.size();
}

size_t ThreadPool::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + running_;
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return queue_.empty() && running_ == 0 && completing_ == 0;
  });
}

void ThreadPool::Shutdown(bool drain_pending) {
  std::deque<Item> discarded;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    if (!drain_pending) {
      discarded.swap(queue_);
      NotifyIfIdleLocked();
    }
  }
  cv_.notify_all();
  {
    std::lock_guard<std::mutex> join_lock(join_mu_);
    if (!joined_) {
      for (auto& t : threads_) t.join();
      joined_ = true;
    }
  }
  // `discarded` dies here: the promises of never-run tasks are abandoned,
  // so their futures observe broken_promise instead of hanging — and the
  // process does not abort.
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
    Item item;
    std::function<void()> on_complete;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      item = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      on_complete = task_complete_callback_;
    }
    item.fn();
    item.done.set_value();
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
