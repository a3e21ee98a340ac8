#include "tensor/ops.h"

#include "common/fpu.h"
#include "common/stopwatch.h"
#include "tensor/exec_context.h"
#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace taste::tensor {

namespace {

using internal::TensorImpl;

/// A tensor of `shape` for an op's output, from the bound context's buffer
/// pool when a context is bound. Ops pass kUninitialized only when their kernel
/// writes every element from the inputs alone: a recycled buffer then skips
/// the zero fill, and its stale values are overwritten before any read.
/// Heap and fresh pool buffers are zeroed either way.
std::shared_ptr<TensorImpl> NewImpl(Shape shape,
                                    BufferInit init = BufferInit::kZeroed) {
  // Subnormal floats cripple throughput on x86 (see common/fpu.h); arm
  // flush-to-zero once per thread that performs tensor math.
  thread_local FlushDenormalsScope flush_denormals;
  auto impl = std::make_shared<TensorImpl>();
  const size_t n = static_cast<size_t>(NumElements(shape));
  ExecContext* ctx = ExecContext::Current();
  if (ctx != nullptr) {
    impl->data = ctx->buffer_pool()->Acquire(n, init);
    impl->pool = ctx->buffer_pool();
  } else {
    impl->data.assign(n, 0.0f);
  }
  impl->shape = std::move(shape);
  return impl;
}

bool AnyRequiresGrad(std::initializer_list<const Tensor*> ts) {
  for (const Tensor* t : ts) {
    if (t->defined() && t->requires_grad()) return true;
  }
  return false;
}

/// Registers the autograd edge on `out` if recording is active.
void SetEdge(const std::shared_ptr<TensorImpl>& out,
             std::initializer_list<const Tensor*> inputs,
             std::function<void()> backward) {
  if (!GradEnabled() || !AnyRequiresGrad(inputs)) return;
  internal::NoteGradEdgeRecorded();
  out->requires_grad = true;
  out->backward = std::move(backward);
  for (const Tensor* t : inputs) out->parents.push_back(t->impl());
}

/// RAII kernel timer; records into the bound context's stats when
/// profiling is on, otherwise costs one thread-local load.
class OpTimer {
 public:
  explicit OpTimer(OpTiming ExecStats::* bucket)
      : ctx_(ExecContext::Current()), bucket_(bucket) {
    if (ctx_ != nullptr && !ctx_->profiling()) ctx_ = nullptr;
  }
  ~OpTimer() {
    if (ctx_ != nullptr) ctx_->RecordOp(bucket_, watch_.ElapsedMillis());
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  ExecContext* ctx_;
  OpTiming ExecStats::* bucket_;
  Stopwatch watch_;
};

/// Generic unary elementwise op: y = f(x), dx += df(x, y) * dy.
template <typename F, typename DF>
Tensor UnaryOp(const Tensor& x, F f, DF df) {
  auto out = NewImpl(x.shape(), BufferInit::kUninitialized);
  const float* xd = x.data();
  for (int64_t i = 0; i < x.numel(); ++i) out->data[i] = f(xd[i]);
  auto xi = x.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&x}, [xi, oi, df] {
    if (!xi->requires_grad) return;
    auto& xg = xi->MutableGrad();
    const auto& og = oi->MutableGrad();
    for (size_t i = 0; i < xg.size(); ++i) {
      xg[i] += df(xi->data[i], oi->data[i]) * og[i];
    }
  });
  return Tensor(out);
}

/// dst[0, n) = src[0, n). Zero-length copies are skipped: an empty tensor's
/// data() may be null, and memcpy with a null pointer is undefined even
/// when it copies nothing.
void CopyFloats(float* dst, const float* src, int64_t n) {
  if (n > 0) std::memcpy(dst, src, sizeof(float) * static_cast<size_t>(n));
}

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  TASTE_CHECK_MSG(a.shape() == b.shape(),
                  std::string(op) + " shape mismatch: " +
                      ShapeToString(a.shape()) + " vs " +
                      ShapeToString(b.shape()));
}

}  // namespace

// -- Elementwise --------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  auto out = NewImpl(a.shape(), BufferInit::kUninitialized);
  kernels::AddSpan(a.data(), b.data(), out->data.data(), a.numel());
  auto ai = a.impl();
  auto bi = b.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&a, &b}, [ai, bi, oi] {
    const auto& og = oi->MutableGrad();
    if (ai->requires_grad) {
      auto& g = ai->MutableGrad();
      kernels::AccumulateSpan(og.data(), g.data(),
                              static_cast<int64_t>(g.size()));
    }
    if (bi->requires_grad) {
      auto& g = bi->MutableGrad();
      kernels::AccumulateSpan(og.data(), g.data(),
                              static_cast<int64_t>(g.size()));
    }
  });
  return Tensor(out);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  auto out = NewImpl(a.shape(), BufferInit::kUninitialized);
  kernels::SubSpan(a.data(), b.data(), out->data.data(), a.numel());
  auto ai = a.impl();
  auto bi = b.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&a, &b}, [ai, bi, oi] {
    const auto& og = oi->MutableGrad();
    if (ai->requires_grad) {
      auto& g = ai->MutableGrad();
      kernels::AccumulateSpan(og.data(), g.data(),
                              static_cast<int64_t>(g.size()));
    }
    if (bi->requires_grad) {
      auto& g = bi->MutableGrad();
      kernels::AxpySpan(-1.0f, og.data(), g.data(),
                        static_cast<int64_t>(g.size()));
    }
  });
  return Tensor(out);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  auto out = NewImpl(a.shape(), BufferInit::kUninitialized);
  kernels::MulSpan(a.data(), b.data(), out->data.data(), a.numel());
  auto ai = a.impl();
  auto bi = b.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&a, &b}, [ai, bi, oi] {
    const auto& og = oi->MutableGrad();
    if (ai->requires_grad) {
      auto& g = ai->MutableGrad();
      kernels::MulAccumulateSpan(bi->data.data(), og.data(), g.data(),
                                 static_cast<int64_t>(g.size()));
    }
    if (bi->requires_grad) {
      auto& g = bi->MutableGrad();
      kernels::MulAccumulateSpan(ai->data.data(), og.data(), g.data(),
                                 static_cast<int64_t>(g.size()));
    }
  });
  return Tensor(out);
}

Tensor Scale(const Tensor& x, float s) {
  auto out = NewImpl(x.shape(), BufferInit::kUninitialized);
  kernels::ScaleSpan(x.data(), s, out->data.data(), x.numel());
  auto xi = x.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&x}, [xi, oi, s] {
    if (!xi->requires_grad) return;
    auto& g = xi->MutableGrad();
    kernels::AxpySpan(s, oi->MutableGrad().data(), g.data(),
                      static_cast<int64_t>(g.size()));
  });
  return Tensor(out);
}

Tensor AddScalar(const Tensor& x, float c) {
  return UnaryOp(
      x, [c](float v) { return v + c; }, [](float, float) { return 1.0f; });
}

Tensor Square(const Tensor& x) {
  return UnaryOp(
      x, [](float v) { return v * v; },
      [](float v, float) { return 2.0f * v; });
}

Tensor Log(const Tensor& x) {
  return UnaryOp(
      x, [](float v) { return std::log(v); },
      [](float v, float) { return 1.0f / v; });
}

Tensor Reciprocal(const Tensor& x) {
  return UnaryOp(
      x, [](float v) { return 1.0f / v; },
      [](float, float y) { return -y * y; });
}

Tensor Relu(const Tensor& x) {
  return UnaryOp(
      x, [](float v) { return v > 0 ? v : 0.0f; },
      [](float v, float) { return v > 0 ? 1.0f : 0.0f; });
}

Tensor Gelu(const Tensor& x) {
  auto out = NewImpl(x.shape(), BufferInit::kUninitialized);
  {
    OpTimer timer(&ExecStats::gelu);
    kernels::GeluRows(x.data(), out->data.data(), x.numel());
  }
  auto xi = x.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&x}, [xi, oi] {
    if (!xi->requires_grad) return;
    auto& g = xi->MutableGrad();
    kernels::GeluGradRows(xi->data.data(), oi->MutableGrad().data(), g.data(),
                          static_cast<int64_t>(g.size()));
  });
  return Tensor(out);
}

Tensor Sigmoid(const Tensor& x) {
  return UnaryOp(
      x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& x) {
  return UnaryOp(
      x, [](float v) { return std::tanh(v); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Dropout(const Tensor& x, float p, Rng& rng, bool training) {
  if (!training || p <= 0.0f) return x;
  TASTE_CHECK(p < 1.0f);
  auto out = NewImpl(x.shape(), BufferInit::kUninitialized);
  auto mask = std::make_shared<std::vector<float>>(x.numel());
  const float scale = 1.0f / (1.0f - p);
  const float* xd = x.data();
  for (int64_t i = 0; i < x.numel(); ++i) {
    (*mask)[i] = rng.NextBool(p) ? 0.0f : scale;
    out->data[i] = xd[i] * (*mask)[i];
  }
  auto xi = x.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&x}, [xi, oi, mask] {
    if (!xi->requires_grad) return;
    auto& g = xi->MutableGrad();
    const auto& og = oi->MutableGrad();
    for (size_t i = 0; i < g.size(); ++i) g[i] += (*mask)[i] * og[i];
  });
  return Tensor(out);
}

// -- Broadcast adds -------------------------------------------------------------

Tensor AddBias(const Tensor& x, const Tensor& bias) {
  TASTE_CHECK(bias.rank() == 1);
  int64_t h = bias.dim(0);
  TASTE_CHECK_MSG(x.dim(-1) == h, "AddBias last-dim mismatch");
  auto out = NewImpl(x.shape(), BufferInit::kUninitialized);
  const float* xd = x.data();
  const float* bd = bias.data();
  int64_t rows = x.numel() / h;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < h; ++j) {
      out->data[r * h + j] = xd[r * h + j] + bd[j];
    }
  }
  auto xi = x.impl();
  auto bi = bias.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&x, &bias}, [xi, bi, oi, rows, h] {
    const auto& og = oi->MutableGrad();
    if (xi->requires_grad) {
      auto& g = xi->MutableGrad();
      for (size_t i = 0; i < g.size(); ++i) g[i] += og[i];
    }
    if (bi->requires_grad) {
      auto& g = bi->MutableGrad();
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t j = 0; j < h; ++j) g[j] += og[r * h + j];
      }
    }
  });
  return Tensor(out);
}

Tensor AddBroadcastMat(const Tensor& x, const Tensor& m2) {
  TASTE_CHECK(x.rank() == 3 && m2.rank() == 2);
  int64_t batch = x.dim(0), m = x.dim(1), n = x.dim(2);
  TASTE_CHECK_MSG(m2.dim(0) == m && m2.dim(1) == n,
                  "AddBroadcastMat shape mismatch");
  auto out = NewImpl(x.shape(), BufferInit::kUninitialized);
  const float* xd = x.data();
  const float* md = m2.data();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t i = 0; i < m * n; ++i) {
      out->data[b * m * n + i] = xd[b * m * n + i] + md[i];
    }
  }
  auto xi = x.impl();
  auto mi = m2.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&x, &m2}, [xi, mi, oi, batch, m, n] {
    const auto& og = oi->MutableGrad();
    if (xi->requires_grad) {
      auto& g = xi->MutableGrad();
      for (size_t i = 0; i < g.size(); ++i) g[i] += og[i];
    }
    if (mi->requires_grad) {
      auto& g = mi->MutableGrad();
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t i = 0; i < m * n; ++i) g[i] += og[b * m * n + i];
      }
    }
  });
  return Tensor(out);
}

// -- Linear algebra --------------------------------------------------------------

namespace {

/// MatMul's backward: dA += dC B^T and dB += A^T dC for C = A B, A (m, k)
/// and B (k, n), into whichever of the two records gradients.
void MatMulBackward(TensorImpl* a, TensorImpl* b, const float* dc, int64_t m,
                    int64_t n, int64_t k) {
  if (a->requires_grad) {
    // dA = dC * B^T : (m,n) x (n,k)
    kernels::GemmAcc(dc, b->data.data(), a->MutableGrad().data(), m, k, n,
                     false, true);
  }
  if (b->requires_grad) {
    // dB = A^T * dC : (k,m) x (m,n)
    kernels::GemmAcc(a->data.data(), dc, b->MutableGrad().data(), k, n, m,
                     true, false);
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  TASTE_CHECK(a.rank() == 2 && b.rank() == 2);
  int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  TASTE_CHECK_MSG(b.dim(0) == k, "MatMul inner-dim mismatch");
  auto out = NewImpl({m, n}, BufferInit::kUninitialized);
  {
    OpTimer timer(&ExecStats::gemm);
    kernels::Gemm(a.data(), b.data(), nullptr, out->data.data(), m, n, k,
                  false, false);
  }
  auto ai = a.impl();
  auto bi = b.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&a, &b}, [ai, bi, oi, m, n, k] {
    MatMulBackward(ai.get(), bi.get(), oi->MutableGrad().data(), m, n, k);
  });
  return Tensor(out);
}

Tensor Linear(const Tensor& x, const Tensor& w, const Tensor& bias) {
  TASTE_CHECK(x.rank() == 2 && w.rank() == 2 && bias.rank() == 1);
  const int64_t m = x.dim(0), k = x.dim(1), n = w.dim(1);
  TASTE_CHECK_MSG(w.dim(0) == k, "Linear inner-dim mismatch");
  TASTE_CHECK_MSG(bias.dim(0) == n, "Linear bias mismatch");
  auto out = NewImpl({m, n}, BufferInit::kUninitialized);
  {
    OpTimer timer(&ExecStats::gemm);
    kernels::Gemm(x.data(), w.data(), bias.data(), out->data.data(), m, n, k,
                  false, false);
  }
  auto xi = x.impl();
  auto wi = w.impl();
  auto bi = bias.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&x, &w, &bias}, [xi, wi, bi, oi, m, n, k] {
    const float* og = oi->MutableGrad().data();
    // AddBias's backward, then MatMul's: the order the two-node chain ran
    // them in. Its intermediate gradient was +0 + og, which differs from
    // og only in a zero's sign, and that cannot reach a GEMM chain seeded
    // from +0 (DESIGN.md §9).
    if (bi->requires_grad) {
      auto& g = bi->MutableGrad();
      for (int64_t r = 0; r < m; ++r) {
        for (int64_t j = 0; j < n; ++j) g[j] += og[r * n + j];
      }
    }
    MatMulBackward(xi.get(), wi.get(), og, m, n, k);
  });
  return Tensor(out);
}

Tensor QuantLinear(const Tensor& x, const quant::PackedQuantWeight& w,
                   const Tensor& bias) {
  TASTE_CHECK(x.rank() == 2);
  const int64_t m = x.dim(0);
  TASTE_CHECK_MSG(x.dim(1) == w.rows, "QuantLinear inner-dim mismatch");
  if (bias.defined()) {
    TASTE_CHECK(bias.rank() == 1 && bias.dim(0) == w.cols);
  }
  TASTE_CHECK_MSG(!GradEnabled(),
                  "QuantLinear is inference-only (no autograd edge)");
  auto out = NewImpl({m, w.cols}, BufferInit::kUninitialized);
  {
    OpTimer timer(&ExecStats::quant_gemm);
    quant::QuantLinearForward(x.data(), m, w,
                              bias.defined() ? bias.data() : nullptr,
                              out->data.data());
  }
  return Tensor(out);
}

Tensor BatchedMatMul(const Tensor& a, const Tensor& b) {
  TASTE_CHECK(a.rank() == 3 && b.rank() == 3);
  int64_t batch = a.dim(0), m = a.dim(1), k = a.dim(2), n = b.dim(2);
  TASTE_CHECK_MSG(b.dim(0) == batch && b.dim(1) == k,
                  "BatchedMatMul shape mismatch");
  auto out = NewImpl({batch, m, n});
  {
    OpTimer timer(&ExecStats::gemm);
    for (int64_t bi_ = 0; bi_ < batch; ++bi_) {
      kernels::GemmAcc(a.data() + bi_ * m * k, b.data() + bi_ * k * n,
                       out->data.data() + bi_ * m * n, m, n, k, false, false);
    }
  }
  auto ai = a.impl();
  auto bi = b.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&a, &b}, [ai, bi, oi, batch, m, n, k] {
    const float* og = oi->MutableGrad().data();
    if (ai->requires_grad) {
      float* ag = ai->MutableGrad().data();
      for (int64_t t = 0; t < batch; ++t) {
        kernels::GemmAcc(og + t * m * n, bi->data.data() + t * k * n,
                         ag + t * m * k, m, k, n, false, true);
      }
    }
    if (bi->requires_grad) {
      float* bg = bi->MutableGrad().data();
      for (int64_t t = 0; t < batch; ++t) {
        kernels::GemmAcc(ai->data.data() + t * m * k, og + t * m * n,
                         bg + t * k * n, k, n, m, true, false);
      }
    }
  });
  return Tensor(out);
}

Tensor TransposeLast2(const Tensor& x) {
  TASTE_CHECK(x.rank() == 2 || x.rank() == 3);
  int64_t batch = x.rank() == 3 ? x.dim(0) : 1;
  int64_t m = x.dim(-2), n = x.dim(-1);
  Shape out_shape = x.shape();
  std::swap(out_shape[out_shape.size() - 1], out_shape[out_shape.size() - 2]);
  auto out = NewImpl(out_shape);
  const float* xd = x.data();
  for (int64_t b = 0; b < batch; ++b) {
    const float* src = xd + b * m * n;
    float* dst = out->data.data() + b * m * n;
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) dst[j * m + i] = src[i * n + j];
    }
  }
  auto xi = x.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&x}, [xi, oi, batch, m, n] {
    if (!xi->requires_grad) return;
    auto& g = xi->MutableGrad();
    const auto& og = oi->MutableGrad();
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          g[b * m * n + i * n + j] += og[b * m * n + j * m + i];
        }
      }
    }
  });
  return Tensor(out);
}

Tensor Reshape(const Tensor& x, Shape shape) {
  TASTE_CHECK_MSG(NumElements(shape) == x.numel(), "Reshape numel mismatch");
  auto out = NewImpl(std::move(shape));
  CopyFloats(out->data.data(), x.data(), x.numel());
  auto xi = x.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&x}, [xi, oi] {
    if (!xi->requires_grad) return;
    auto& g = xi->MutableGrad();
    const auto& og = oi->MutableGrad();
    for (size_t i = 0; i < g.size(); ++i) g[i] += og[i];
  });
  return Tensor(out);
}

// -- Attention -------------------------------------------------------------------

namespace {

/// Per-thread backward operands, grown to the largest (span, head) block
/// the thread has seen and reused. The forward's scratch lives in
/// kernels::AttentionBlockForward.
struct AttentionScratch {
  std::vector<float> scores;
  std::vector<float> q, k, v, ctx;
  std::vector<float> dscores, dq, dk, dv;
};

AttentionScratch& AttnScratch() {
  thread_local AttentionScratch s;
  return s;
}

/// `buf` grown to at least n floats.
float* Tile(std::vector<float>& buf, int64_t n) {
  if (buf.size() < static_cast<size_t>(n)) buf.resize(static_cast<size_t>(n));
  return buf.data();
}

/// A zeroed n-float tile: GemmAcc accumulates into C.
float* ZeroTile(std::vector<float>& buf, int64_t n) {
  float* p = Tile(buf, n);
  std::fill(p, p + n, 0.0f);
  return p;
}

struct AttentionDims {
  int64_t hidden;
  int64_t head_dim;
  float scale;  // 1 / sqrt(head_dim)
};

int64_t SpanWidth(const AttentionSpan& s) {
  return s.kv[0].rows + s.kv[1].rows;
}

/// dst (range.rows, hd) = columns [col, col+hd) of x's rows in `range`.
void GatherHead(const float* x, const AttentionDims& d, int64_t col,
                RowRange range, float* dst) {
  for (int64_t r = 0; r < range.rows; ++r) {
    CopyFloats(dst + r * d.head_dim, x + (range.begin + r) * d.hidden + col,
               d.head_dim);
  }
}

/// Columns [col, col+hd) of x's rows in `range` += src (range.rows, hd).
void ScatterAddHead(const float* src, const AttentionDims& d, int64_t col,
                    RowRange range, float* x) {
  for (int64_t r = 0; r < range.rows; ++r) {
    kernels::AccumulateSpan(src + r * d.head_dim,
                            x + (range.begin + r) * d.hidden + col,
                            d.head_dim);
  }
}

/// Head `head` of one span's keys or values: kv[0]'s rows, then kv[1]'s.
void GatherHeadKv(const float* x, const AttentionDims& d, int64_t col,
                  const AttentionSpan& s, float* dst) {
  GatherHead(x, d, col, s.kv[0], dst);
  GatherHead(x, d, col, s.kv[1], dst + s.kv[0].rows * d.head_dim);
}

void ScatterAddHeadKv(const float* src, const AttentionDims& d, int64_t col,
                      const AttentionSpan& s, float* x) {
  ScatterAddHead(src, d, col, s.kv[0], x);
  ScatterAddHead(src + s.kv[0].rows * d.head_dim, d, col, s.kv[1], x);
}

/// A maximal run of consecutive spans [first, last) that share kv[0], the
/// mask tensor and the width, with contiguous query rows starting at
/// `row0`, `rows` in all. Per head, the group is one
/// kernels::AttentionBlockForward block: its memory keys and values are
/// packed once for all of its spans, and its register bands run across
/// span boundaries.
struct AttentionGroup {
  size_t first = 0;
  size_t last = 0;
  int64_t row0 = 0;
  int64_t rows = 0;
};

std::vector<AttentionGroup> GroupSpans(
    const std::vector<AttentionSpan>& spans) {
  std::vector<AttentionGroup> groups;
  for (size_t i = 0; i < spans.size(); ++i) {
    const AttentionSpan& s = spans[i];
    if (!groups.empty()) {
      AttentionGroup& g = groups.back();
      const AttentionSpan& head = spans[g.first];
      if (s.kv[0].begin == head.kv[0].begin &&
          s.kv[0].rows == head.kv[0].rows && s.mask == head.mask &&
          SpanWidth(s) == SpanWidth(head) &&
          s.query.begin == g.row0 + g.rows) {
        g.last = i + 1;
        g.rows += s.query.rows;
        continue;
      }
    }
    groups.push_back({i, i + 1, s.query.begin, s.query.rows});
  }
  return groups;
}

/// Backward of one (span, head) block, accumulating into the non-null
/// gradients of q, k and v.
void AttentionBlockBackward(const float* q, const float* k, const float* v,
                            const AttentionSpan& s, int64_t head,
                            const AttentionDims& d, const float* probs,
                            const float* dout, float* dq, float* dk,
                            float* dv) {
  AttentionScratch& t = AttnScratch();
  const int64_t seg = s.query.rows;
  const int64_t width = SpanWidth(s);
  const int64_t hd = d.head_dim;
  const int64_t col = head * hd;
  float* dctx = Tile(t.ctx, seg * hd);
  GatherHead(dout, d, col, s.query, dctx);
  if (dv != nullptr) {
    // dV = P^T dctx.
    float* dvh = ZeroTile(t.dv, width * hd);
    kernels::GemmAcc(probs, dctx, dvh, width, hd, seg, true, false);
    ScatterAddHeadKv(dvh, d, col, s, dv);
  }
  if (dq == nullptr && dk == nullptr) return;
  // dP = dctx V^T; dS = scale * softmax'(dP). The mask is a constant.
  float* vh = Tile(t.v, width * hd);
  GatherHeadKv(v, d, col, s, vh);
  float* dp = ZeroTile(t.scores, seg * width);
  kernels::GemmAcc(dctx, vh, dp, seg, width, hd, false, true);
  float* ds = ZeroTile(t.dscores, seg * width);
  kernels::SoftmaxGradRows(probs, dp, ds, seg, width);
  kernels::ScaleSpan(ds, d.scale, ds, seg * width);
  if (dq != nullptr) {
    // dQ = dS K.
    float* kh = Tile(t.k, width * hd);
    GatherHeadKv(k, d, col, s, kh);
    float* dqh = ZeroTile(t.dq, seg * hd);
    kernels::GemmAcc(ds, kh, dqh, seg, hd, width, false, false);
    ScatterAddHead(dqh, d, col, s.query, dq);
  }
  if (dk != nullptr) {
    // dK = dS^T Q.
    float* qh = Tile(t.q, seg * hd);
    GatherHead(q, d, col, s.query, qh);
    float* dkh = ZeroTile(t.dk, width * hd);
    kernels::GemmAcc(ds, qh, dkh, width, hd, seg, true, false);
    ScatterAddHeadKv(dkh, d, col, s, dk);
  }
}

bool RangeWithin(RowRange r, int64_t rows) {
  return r.begin >= 0 && r.rows >= 0 && r.begin + r.rows <= rows;
}

}  // namespace

Tensor Attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 int64_t num_heads, const std::vector<AttentionSpan>& spans) {
  TASTE_CHECK(q.rank() == 2 && k.rank() == 2 && v.rank() == 2);
  const int64_t hidden = q.dim(1);
  TASTE_CHECK_MSG(num_heads > 0 && hidden % num_heads == 0,
                  "Attention hidden size must be divisible by num_heads");
  TASTE_CHECK_MSG(k.dim(1) == hidden && v.shape() == k.shape(),
                  "Attention q/k/v shape mismatch");
  const int64_t head_dim = hidden / num_heads;
  const AttentionDims dims{hidden, head_dim,
                           1.0f / std::sqrt(static_cast<float>(head_dim))};
  for (const AttentionSpan& s : spans) {
    const int64_t width = SpanWidth(s);
    TASTE_CHECK_MSG(RangeWithin(s.query, q.dim(0)) &&
                        RangeWithin(s.kv[0], k.dim(0)) &&
                        RangeWithin(s.kv[1], k.dim(0)),
                    "Attention span row range out of bounds");
    TASTE_CHECK_MSG(s.query.rows == 0 || width > 0,
                    "Attention span has queries but no keys");
    if (s.mask != nullptr) {
      const int64_t mask_rows = s.shared_mask_row ? 1 : s.query.rows;
      TASTE_CHECK_MSG(s.mask->rank() == 2 && s.mask->dim(1) == width &&
                          s.mask_row >= 0 &&
                          s.mask_row + mask_rows <= s.mask->dim(0),
                      "Attention mask shape mismatch");
      TASTE_CHECK_MSG(!s.mask->requires_grad(),
                      "Attention masks are constants");
    }
  }
  // Forward block b = g * num_heads + a is group g, head a. When an edge is
  // recorded, its probabilities stay at probs + group_off[b] (rows x width,
  // laid out [group][head][rows x width]), so span i's head-a slice is the
  // contiguous seg x width at probs_off[i * num_heads + a], the backward's
  // per-(span, head) operand. The kernel overwrites every row a span
  // covers; the rows none covers are zeroed below, so the output buffer is
  // taken uninitialized.
  const std::vector<AttentionGroup> groups = GroupSpans(spans);
  const int64_t blocks = static_cast<int64_t>(groups.size()) * num_heads;
  std::vector<int64_t> group_off(static_cast<size_t>(blocks) + 1, 0);
  std::vector<int64_t> probs_off(spans.size() * num_heads, 0);
  std::vector<std::vector<kernels::AttentionBlockSpan>> block_spans(
      groups.size());  // each group's spans in kernel form, for every head
  std::vector<bool> covered(static_cast<size_t>(q.dim(0)), false);
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const AttentionGroup& g = groups[gi];
    const int64_t width = SpanWidth(spans[g.first]);
    for (size_t i = g.first; i < g.last; ++i) {
      const AttentionSpan& s = spans[i];
      block_spans[gi].push_back(
          {.rows = s.query.rows,
           .own_begin = s.kv[1].begin,
           .mask = s.mask != nullptr ? s.mask->data() + s.mask_row * width
                                     : nullptr,
           .mask_stride = s.shared_mask_row ? 0 : width});
      std::fill_n(covered.begin() + s.query.begin, s.query.rows, true);
    }
    for (int64_t a = 0; a < num_heads; ++a) {
      const size_t b = gi * static_cast<size_t>(num_heads) + a;
      group_off[b + 1] = group_off[b] + g.rows * width;
      for (size_t i = g.first; i < g.last; ++i) {
        probs_off[i * num_heads + a] =
            group_off[b] + (spans[i].query.begin - g.row0) * width;
      }
    }
  }
  const bool record = GradEnabled() && AnyRequiresGrad({&q, &k, &v});
  auto probs = record ? std::make_shared<std::vector<float>>(
                            static_cast<size_t>(group_off.back()))
                      : nullptr;
  auto out = NewImpl({q.dim(0), hidden}, BufferInit::kUninitialized);
  for (int64_t r = 0; r < q.dim(0); ++r) {
    if (!covered[static_cast<size_t>(r)]) {
      std::fill_n(out->data.data() + r * hidden, hidden, 0.0f);
    }
  }
  {
    OpTimer timer(&ExecStats::attention);
    for (int64_t b = 0; b < blocks; ++b) {
      const size_t gi = static_cast<size_t>(b / num_heads);
      const AttentionGroup& g = groups[gi];
      if (g.rows == 0) continue;
      const AttentionSpan& first = spans[g.first];
      const std::vector<kernels::AttentionBlockSpan>& bs = block_spans[gi];
      const kernels::AttentionBlock block{
          .ld = hidden,
          .head_dim = head_dim,
          .scale = dims.scale,
          .query_begin = g.row0,
          .mem_begin = first.kv[0].begin,
          .sm = first.kv[0].rows,
          .width = SpanWidth(first),
          .spans = bs.data(),
          .num_spans = static_cast<int64_t>(bs.size())};
      const int64_t col = (b % num_heads) * head_dim;
      kernels::AttentionBlockForward(
          block, q.data() + col, k.data() + col, v.data() + col,
          probs != nullptr ? probs->data() + group_off[b] : nullptr,
          out->data.data() + col);
    }
  }
  if (record) {
    std::vector<AttentionSpan> geometry = spans;
    // Backward never reads the masks; drop the pointers, not the spans.
    for (AttentionSpan& s : geometry) s.mask = nullptr;
    auto qi = q.impl();
    auto ki = k.impl();
    auto vi = v.impl();
    internal::TensorImpl* oi = out.get();
    SetEdge(out, {&q, &k, &v}, [qi, ki, vi, oi, geometry, probs, probs_off,
                                num_heads, dims] {
      auto grad = [](internal::TensorImpl* t) {
        return t->requires_grad ? t->MutableGrad().data() : nullptr;
      };
      float* dq = grad(qi.get());
      float* dk = grad(ki.get());
      float* dv = grad(vi.get());
      const float* dout = oi->MutableGrad().data();
      const int64_t blocks =
          static_cast<int64_t>(geometry.size()) * num_heads;
      for (int64_t b = 0; b < blocks; ++b) {
        const AttentionSpan& s = geometry[static_cast<size_t>(b / num_heads)];
        if (s.query.rows == 0) continue;
        AttentionBlockBackward(qi->data.data(), ki->data.data(),
                               vi->data.data(), s, b % num_heads, dims,
                               probs->data() + probs_off[b], dout, dq, dk, dv);
      }
    });
  }
  return Tensor(out);
}

// -- Normalization & softmax -------------------------------------------------------

Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  TASTE_CHECK(gamma.rank() == 1 && beta.rank() == 1);
  int64_t h = x.dim(-1);
  TASTE_CHECK(gamma.dim(0) == h && beta.dim(0) == h);
  int64_t rows = x.numel() / h;
  auto out = NewImpl(x.shape(), BufferInit::kUninitialized);
  // Only the backward reads xhat and inv_std; without an edge, skip them.
  const bool record = GradEnabled() && AnyRequiresGrad({&x, &gamma, &beta});
  std::shared_ptr<std::vector<float>> xhat, inv_std;
  if (record) {
    xhat = std::make_shared<std::vector<float>>(x.numel());
    inv_std = std::make_shared<std::vector<float>>(rows);
  }
  {
    OpTimer timer(&ExecStats::layernorm);
    kernels::LayerNormRows(x.data(), gamma.data(), beta.data(), eps, rows, h,
                           out->data.data(), record ? xhat->data() : nullptr,
                           record ? inv_std->data() : nullptr);
  }
  if (!record) return Tensor(out);
  auto xi = x.impl();
  auto gi = gamma.impl();
  auto bi = beta.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&x, &gamma, &beta},
          [xi, gi, bi, oi, xhat, inv_std, rows, h] {
            const auto& og = oi->MutableGrad();
            float* dgamma =
                gi->requires_grad ? gi->MutableGrad().data() : nullptr;
            float* dbeta =
                bi->requires_grad ? bi->MutableGrad().data() : nullptr;
            float* dx = xi->requires_grad ? xi->MutableGrad().data() : nullptr;
            kernels::LayerNormGradRows(gi->data.data(), xhat->data(),
                                       inv_std->data(), og.data(), rows, h,
                                       dgamma, dbeta, dx);
          });
  return Tensor(out);
}

Tensor Softmax(const Tensor& x) {
  int64_t h = x.dim(-1);
  int64_t rows = x.numel() / h;
  auto out = NewImpl(x.shape(), BufferInit::kUninitialized);
  {
    OpTimer timer(&ExecStats::softmax);
    kernels::SoftmaxRows(x.data(), out->data.data(), rows, h);
  }
  auto xi = x.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&x}, [xi, oi, rows, h] {
    if (!xi->requires_grad) return;
    auto& xg = xi->MutableGrad();
    kernels::SoftmaxGradRows(oi->data.data(), oi->MutableGrad().data(),
                             xg.data(), rows, h);
  });
  return Tensor(out);
}

// -- Gather / concat / slice ---------------------------------------------------------

Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int>& ids) {
  TASTE_CHECK(weight.rank() == 2);
  int64_t v = weight.dim(0), h = weight.dim(1);
  auto out = NewImpl({static_cast<int64_t>(ids.size()), h}, BufferInit::kUninitialized);
  const float* wd = weight.data();
  for (size_t i = 0; i < ids.size(); ++i) {
    TASTE_CHECK_MSG(ids[i] >= 0 && ids[i] < v, "EmbeddingLookup id range");
    CopyFloats(out->data.data() + i * h, wd + ids[i] * h, h);
  }
  auto wi = weight.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&weight}, [wi, oi, ids, h] {
    if (!wi->requires_grad) return;
    auto& wg = wi->MutableGrad();
    const auto& og = oi->MutableGrad();
    for (size_t i = 0; i < ids.size(); ++i) {
      for (int64_t j = 0; j < h; ++j) {
        wg[ids[i] * h + j] += og[i * h + j];
      }
    }
  });
  return Tensor(out);
}

Tensor GatherRows(const Tensor& x, const std::vector<int>& rows) {
  TASTE_CHECK(x.rank() == 2);
  int64_t n = x.dim(0), h = x.dim(1);
  auto out = NewImpl({static_cast<int64_t>(rows.size()), h}, BufferInit::kUninitialized);
  const float* xd = x.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    TASTE_CHECK_MSG(rows[i] >= 0 && rows[i] < n, "GatherRows index range");
    CopyFloats(out->data.data() + i * h, xd + rows[i] * h, h);
  }
  auto xi = x.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&x}, [xi, oi, rows, h] {
    if (!xi->requires_grad) return;
    auto& xg = xi->MutableGrad();
    const auto& og = oi->MutableGrad();
    for (size_t i = 0; i < rows.size(); ++i) {
      for (int64_t j = 0; j < h; ++j) {
        xg[rows[i] * h + j] += og[i * h + j];
      }
    }
  });
  return Tensor(out);
}

Tensor ConcatRows(const std::vector<Tensor>& xs) {
  TASTE_CHECK(!xs.empty());
  int64_t h = xs[0].dim(1);
  int64_t total = 0;
  for (const Tensor& t : xs) {
    TASTE_CHECK(t.rank() == 2 && t.dim(1) == h);
    total += t.dim(0);
  }
  auto out = NewImpl({total, h}, BufferInit::kUninitialized);
  int64_t offset = 0;
  for (const Tensor& t : xs) {
    CopyFloats(out->data.data() + offset, t.data(), t.numel());
    offset += t.numel();
  }
  // Build the edge manually: variadic parents.
  bool rec = GradEnabled();
  bool any = false;
  for (const Tensor& t : xs) any = any || t.requires_grad();
  if (rec && any) {
    internal::NoteGradEdgeRecorded();
    out->requires_grad = true;
    std::vector<std::shared_ptr<internal::TensorImpl>> parents;
    for (const Tensor& t : xs) parents.push_back(t.impl());
    internal::TensorImpl* oi = out.get();
    out->parents = parents;
    out->backward = [oi, parents] {
      const auto& og = oi->MutableGrad();
      size_t offset2 = 0;
      for (const auto& p : parents) {
        if (p->requires_grad) {
          auto& g = p->MutableGrad();
          for (size_t i = 0; i < g.size(); ++i) g[i] += og[offset2 + i];
        }
        offset2 += p->data.size();
      }
    };
  }
  return Tensor(out);
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  TASTE_CHECK(a.rank() == 2 && b.rank() == 2);
  int64_t n = a.dim(0);
  TASTE_CHECK(b.dim(0) == n);
  int64_t wa = a.dim(1), wb = b.dim(1);
  auto out = NewImpl({n, wa + wb}, BufferInit::kUninitialized);
  const float* ad = a.data();
  const float* bd = b.data();
  for (int64_t r = 0; r < n; ++r) {
    CopyFloats(out->data.data() + r * (wa + wb), ad + r * wa, wa);
    CopyFloats(out->data.data() + r * (wa + wb) + wa, bd + r * wb, wb);
  }
  auto ai = a.impl();
  auto bi = b.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&a, &b}, [ai, bi, oi, n, wa, wb] {
    const auto& og = oi->MutableGrad();
    if (ai->requires_grad) {
      auto& g = ai->MutableGrad();
      for (int64_t r = 0; r < n; ++r) {
        for (int64_t j = 0; j < wa; ++j) {
          g[r * wa + j] += og[r * (wa + wb) + j];
        }
      }
    }
    if (bi->requires_grad) {
      auto& g = bi->MutableGrad();
      for (int64_t r = 0; r < n; ++r) {
        for (int64_t j = 0; j < wb; ++j) {
          g[r * wb + j] += og[r * (wa + wb) + wa + j];
        }
      }
    }
  });
  return Tensor(out);
}

Tensor SliceRows(const Tensor& x, int64_t begin, int64_t end) {
  TASTE_CHECK(x.rank() == 2);
  int64_t n = x.dim(0), h = x.dim(1);
  TASTE_CHECK(begin >= 0 && begin <= end && end <= n);
  auto out = NewImpl({end - begin, h}, BufferInit::kUninitialized);
  CopyFloats(out->data.data(), x.data() + begin * h, (end - begin) * h);
  auto xi = x.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&x}, [xi, oi, begin, h] {
    if (!xi->requires_grad) return;
    auto& g = xi->MutableGrad();
    const auto& og = oi->MutableGrad();
    for (size_t i = 0; i < og.size(); ++i) g[begin * h + i] += og[i];
  });
  return Tensor(out);
}

// -- Reductions & losses --------------------------------------------------------------

Tensor SumAll(const Tensor& x) {
  auto out = NewImpl({1});
  float acc = 0;
  const float* xd = x.data();
  for (int64_t i = 0; i < x.numel(); ++i) acc += xd[i];
  out->data[0] = acc;
  auto xi = x.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&x}, [xi, oi] {
    if (!xi->requires_grad) return;
    auto& g = xi->MutableGrad();
    float go = oi->MutableGrad()[0];
    for (size_t i = 0; i < g.size(); ++i) g[i] += go;
  });
  return Tensor(out);
}

Tensor MeanAll(const Tensor& x) {
  return Scale(SumAll(x), 1.0f / static_cast<float>(x.numel()));
}

Tensor BceWithLogits(const Tensor& logits, const Tensor& targets,
                     float pos_weight) {
  CheckSameShape(logits, targets, "BceWithLogits");
  TASTE_CHECK(pos_weight > 0.0f);
  auto out = NewImpl({1});
  const float* z = logits.data();
  const float* y = targets.data();
  int64_t n = logits.numel();
  // softplus(x) = max(x, 0) + log1p(exp(-|x|)).
  auto softplus = [](float x) {
    return std::max(x, 0.0f) + std::log1p(std::exp(-std::abs(x)));
  };
  double acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    acc += pos_weight * y[i] * softplus(-z[i]) +
           (1.0f - y[i]) * softplus(z[i]);
  }
  out->data[0] = static_cast<float>(acc / static_cast<double>(n));
  auto li = logits.impl();
  auto ti = targets.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&logits}, [li, ti, oi, n, pos_weight] {
    if (!li->requires_grad) return;
    auto& g = li->MutableGrad();
    float go = oi->MutableGrad()[0] / static_cast<float>(n);
    for (int64_t i = 0; i < n; ++i) {
      float p = 1.0f / (1.0f + std::exp(-li->data[i]));
      float yi = ti->data[i];
      // d/dz [pw*y*softplus(-z) + (1-y)*softplus(z)]
      //   = (1-y)*p - pw*y*(1-p)
      g[i] += ((1.0f - yi) * p - pos_weight * yi * (1.0f - p)) * go;
    }
  });
  return Tensor(out);
}

Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int>& targets,
                              int ignore_index) {
  TASTE_CHECK(logits.rank() == 2);
  int64_t n = logits.dim(0), v = logits.dim(1);
  TASTE_CHECK(static_cast<int64_t>(targets.size()) == n);
  auto out = NewImpl({1});
  // Cache softmax probabilities for the backward pass.
  auto probs = std::make_shared<std::vector<float>>(logits.numel());
  const float* z = logits.data();
  double acc = 0;
  int64_t valid = 0;
  for (int64_t r = 0; r < n; ++r) {
    const float* row = z + r * v;
    float mx = row[0];
    for (int64_t j = 1; j < v; ++j) mx = std::max(mx, row[j]);
    double sum = 0;
    for (int64_t j = 0; j < v; ++j) sum += std::exp(row[j] - mx);
    double logsum = std::log(sum) + mx;
    for (int64_t j = 0; j < v; ++j) {
      (*probs)[r * v + j] = static_cast<float>(std::exp(row[j] - logsum));
    }
    if (targets[r] != ignore_index) {
      TASTE_CHECK(targets[r] >= 0 && targets[r] < v);
      acc += logsum - row[targets[r]];
      ++valid;
    }
  }
  out->data[0] =
      valid > 0 ? static_cast<float>(acc / static_cast<double>(valid)) : 0.0f;
  auto li = logits.impl();
  internal::TensorImpl* oi = out.get();
  SetEdge(out, {&logits}, [li, oi, probs, targets, ignore_index, n, v, valid] {
    if (!li->requires_grad || valid == 0) return;
    auto& g = li->MutableGrad();
    float go = oi->MutableGrad()[0] / static_cast<float>(valid);
    for (int64_t r = 0; r < n; ++r) {
      if (targets[r] == ignore_index) continue;
      for (int64_t j = 0; j < v; ++j) {
        float delta = (j == targets[r]) ? 1.0f : 0.0f;
        g[r * v + j] += ((*probs)[r * v + j] - delta) * go;
      }
    }
  });
  return Tensor(out);
}

std::vector<float> SigmoidValues(const Tensor& logits) {
  std::vector<float> out(static_cast<size_t>(logits.numel()));
  const float* z = logits.data();
  for (int64_t i = 0; i < logits.numel(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-z[i]));
  }
  return out;
}

}  // namespace taste::tensor
