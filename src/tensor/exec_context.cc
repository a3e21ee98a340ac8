#include "tensor/exec_context.h"

#include <algorithm>
#include <cstring>

#include "common/status.h"

namespace taste::tensor {

namespace {
thread_local ExecContext* g_current_context = nullptr;
}  // namespace

BufferPool::BufferPool(int64_t max_bytes) : max_bytes_(max_bytes) {}

std::vector<float> BufferPool::Acquire(size_t n, BufferInit init) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.acquires;
    auto it = free_.find(n);
    if (it != free_.end() && !it->second.empty()) {
      std::vector<float> buf = std::move(it->second.back());
      it->second.pop_back();
      ++stats_.reuses;
      stats_.bytes_pooled -= static_cast<int64_t>(n * sizeof(float));
      if (init == BufferInit::kZeroed) {
        std::memset(buf.data(), 0, n * sizeof(float));
      }
      return buf;
    }
  }
  return std::vector<float>(n, 0.0f);
}

void BufferPool::Release(std::vector<float> buf) {
  const int64_t bytes = static_cast<int64_t>(buf.size() * sizeof(float));
  if (buf.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (stats_.bytes_pooled + bytes > max_bytes_) return;  // drop
  stats_.bytes_pooled += bytes;
  ++stats_.releases;
  free_[buf.size()].push_back(std::move(buf));
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ExecContext::ExecContext() : ExecContext(Options{}) {}

ExecContext::ExecContext(const Options& options)
    : options_(options), pool_(std::make_shared<BufferPool>()) {}

ExecStats ExecContext::stats() const {
  ExecStats s = stats_;
  s.pool = pool_->stats();
  s.pool.acquires -= pool_base_.acquires;
  s.pool.reuses -= pool_base_.reuses;
  s.pool.releases -= pool_base_.releases;
  return s;
}

void ExecContext::ResetStats() {
  stats_ = ExecStats{};
  pool_base_ = pool_->stats();
}

void ExecContext::RecordOp(OpTiming ExecStats::* t, double ms) {
  OpTiming& bucket = stats_.*t;
  ++bucket.calls;
  bucket.ms += ms;
}

ExecContext* ExecContext::Current() { return g_current_context; }

ExecContextPool::Lease::~Lease() {
  if (ctx_ != nullptr) pool_->Return(ctx_);
}

ExecContextPool::~ExecContextPool() {
  TASTE_CHECK_MSG(leased() == 0, "ExecContextPool destroyed with a lease out");
}

ExecContextPool::Lease ExecContextPool::Acquire(
    const ExecContext::Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  ExecContext* ctx = nullptr;
  for (auto it = idle_.rbegin(); it != idle_.rend(); ++it) {
    if ((*it)->options() == options) {
      ctx = *it;
      idle_.erase(std::next(it).base());
      break;
    }
  }
  if (ctx == nullptr) {
    contexts_.push_back(std::make_unique<ExecContext>(options));
    ctx = contexts_.back().get();
  }
  TASTE_CHECK_MSG(!ctx->leased_, "ExecContext leased twice at once");
  ctx->leased_ = true;
  return Lease(this, ctx);
}

void ExecContextPool::Return(ExecContext* ctx) {
  ctx->ResetStats();  // still exclusively ours: the lease has not ended
  std::lock_guard<std::mutex> lock(mu_);
  ctx->leased_ = false;
  idle_.push_back(ctx);
}

size_t ExecContextPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return contexts_.size();
}

size_t ExecContextPool::leased() const {
  std::lock_guard<std::mutex> lock(mu_);
  return contexts_.size() - idle_.size();
}

ScopedExecContext::ScopedExecContext(ExecContext* ctx)
    : prev_(g_current_context), bound_(ctx != nullptr) {
  if (bound_) g_current_context = ctx;
}

ScopedExecContext::~ScopedExecContext() {
  if (bound_) g_current_context = prev_;
}

}  // namespace taste::tensor
