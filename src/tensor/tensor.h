// A small tape-based autograd tensor library (float32, CPU).
//
// This is the numerical substrate the paper gets from PyTorch. It supports
// tensors of rank 1..4, reverse-mode automatic differentiation over a
// dynamically built tape, and exactly the operator set a Transformer
// encoder with multi-head (self- and cross-) attention needs — see ops.h.
//
// Design notes:
//  * `Tensor` is a cheap value type: a shared_ptr to a TensorImpl holding
//    data, (lazily allocated) grad, and the autograd edge (parents +
//    backward closure).
//  * The tape is implicit: each op's result references its inputs. Calling
//    Backward() on a scalar topologically sorts the reachable subgraph and
//    runs the closures in reverse order, accumulating into `grad`.
//  * Gradient recording is controlled by a thread-local flag; wrap
//    inference code in NoGradGuard to skip tape construction entirely.

#ifndef TASTE_TENSOR_TENSOR_H_
#define TASTE_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace taste::tensor {

class BufferPool;  // exec_context.h

/// Tensor dimensions, outermost first.
using Shape = std::vector<int64_t>;

/// Number of elements implied by a shape (1 for rank-0 usage).
int64_t NumElements(const Shape& shape);

/// Renders a shape as e.g. "[4, 12, 64]".
std::string ShapeToString(const Shape& shape);

namespace internal {

struct TensorImpl {
  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  // empty until touched by backward
  bool requires_grad = false;
  // Autograd edge. `backward` propagates this node's grad into parents'.
  std::function<void()> backward;
  std::vector<std::shared_ptr<TensorImpl>> parents;
  // When `data` was acquired from an ExecContext's buffer pool, the pool it
  // must be returned to. Shared ownership keeps the pool alive until the
  // last pooled tensor dies, so tensors may safely outlive their context
  // (e.g. latents parked in the LatentCache). Serving contexts live as long
  // as their detector, so a parked latent holds its own buffer and nothing
  // more. An op whose kernel writes every element may take a recycled
  // buffer without the zero fill; its result cannot depend on the stale
  // values (DESIGN.md §6).
  std::shared_ptr<BufferPool> pool;

  TensorImpl() = default;
  ~TensorImpl();  // returns `data` to `pool`, if pooled
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  std::vector<float>& MutableGrad() {
    if (grad.empty()) grad.assign(data.size(), 0.0f);
    return grad;
  }
};

}  // namespace internal

/// Reference-counted float tensor participating in autograd.
class Tensor {
 public:
  /// Null tensor; most methods require a non-null tensor.
  Tensor() = default;

  // -- Factories ------------------------------------------------------------

  /// All-zero tensor of the given shape.
  static Tensor Zeros(Shape shape, bool requires_grad = false);
  /// Tensor filled with `value`.
  static Tensor Full(Shape shape, float value, bool requires_grad = false);
  /// Adopts `values` (size must equal NumElements(shape)).
  static Tensor FromVector(Shape shape, std::vector<float> values,
                           bool requires_grad = false);
  /// I.i.d. N(0, stddev^2) entries.
  static Tensor Randn(Shape shape, Rng& rng, float stddev = 1.0f,
                      bool requires_grad = false);
  /// Uniform in [lo, hi).
  static Tensor Uniform(Shape shape, Rng& rng, float lo, float hi,
                        bool requires_grad = false);
  /// Rank-0-style scalar stored as shape {1}.
  static Tensor Scalar(float value, bool requires_grad = false);

  // -- Accessors ------------------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  int64_t rank() const { return static_cast<int64_t>(shape().size()); }
  int64_t dim(int64_t i) const;
  int64_t numel() const;

  float* data();
  const float* data() const;
  /// Single value of a one-element tensor.
  float item() const;

  bool requires_grad() const;
  /// Gradient buffer, lazily allocated: if backward has not touched this
  /// tensor yet, the first call allocates (and returns) an all-zero buffer
  /// of numel() elements — callers never observe an empty or short buffer.
  /// Because of that lazy allocation this accessor mutates shared state and
  /// is NOT safe to call concurrently on the same tensor; use HasGrad() to
  /// probe without allocating. Only meaningful after Backward() on a
  /// downstream scalar.
  const std::vector<float>& grad() const;
  /// True when a gradient buffer has been materialized (by backward or a
  /// previous grad() call). Never allocates.
  bool HasGrad() const;
  /// Clears the gradient buffer (used between optimizer steps).
  void ZeroGrad();

  /// Runs reverse-mode autodiff from this tensor, which must be a
  /// one-element tensor (a loss). Accumulates into grads of all reachable
  /// tensors with requires_grad.
  void Backward();

  /// Detached copy sharing no autograd history (data is copied).
  Tensor Detach() const;

  /// Renders up to `max_items` values for debugging.
  std::string ToString(int64_t max_items = 16) const;

  // Internal: used by ops.
  std::shared_ptr<internal::TensorImpl> impl() const { return impl_; }
  explicit Tensor(std::shared_ptr<internal::TensorImpl> impl)
      : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<internal::TensorImpl> impl_;
};

/// True when operations should record autograd edges. Thread-local: false
/// inside a NoGradGuard scope, and also while an ExecContext with
/// Options::no_grad is bound (serving contexts enforce tape-free inference
/// structurally, so a missing guard cannot re-grow the tape).
bool GradEnabled();

/// Total autograd edges recorded by ops on the calling thread (monotonic).
/// Tests diff this around an inference call to prove no tape was built.
int64_t GradEdgesRecorded();

namespace internal {
/// Called by the ops layer whenever an autograd edge is attached.
void NoteGradEdgeRecorded();
}  // namespace internal

/// RAII guard disabling autograd recording within a scope (inference mode).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace taste::tensor

#endif  // TASTE_TENSOR_TENSOR_H_
