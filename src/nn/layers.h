// Elementary trainable layers: Linear, Embedding, LayerNorm, Dropout, and a
// two-layer MLP classifier head.

#ifndef TASTE_NN_LAYERS_H_
#define TASTE_NN_LAYERS_H_

#include <vector>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/exec_context.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace taste::nn {

using tensor::ExecContext;
using tensor::Tensor;

// All Forward() methods below take an optional ExecContext. Passing one
// binds it for the duration of the call (buffer pooling, per-op timing);
// nullptr inherits whatever context the calling thread already has bound —
// so only entry points need to pass it.

/// Affine layer y = x W + b, weight shaped (in, out).
class Linear : public Module {
 public:
  /// Initializes the weight with N(0, 0.02^2) (BERT-style) and zero bias.
  Linear(int64_t in_features, int64_t out_features, Rng& rng);

  /// x is (n, in) -> (n, out). Takes the int8 path (tensor::QuantLinear)
  /// instead of fp32 tensor::Linear when all three hold: PrepackQuant()
  /// ran, the bound context's quant_active() window is open (i.e. an int8
  /// P2 content forward is in progress), and gradients are off.
  Tensor Forward(const Tensor& x, ExecContext* ctx = nullptr) const;

  /// Quantizes the current weight per output channel and packs the int8
  /// panels once (tensor/quant.h). Call at model load / after training,
  /// never concurrently with forwards; re-running re-packs from the
  /// current weight bytes (deterministic). Returns the resident bytes of
  /// the packed panels + scales (~1 byte per weight element).
  int64_t PrepackQuant();
  bool quant_prepacked() const { return quant_ != nullptr; }
  /// Per-output-channel scales when prepacked (checkpoint metadata).
  std::vector<float> QuantScales() const override;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Tensor weight_;
  Tensor bias_;
  /// Shared so forked serving replicas inherit one packed copy (COW).
  std::shared_ptr<tensor::quant::PackedQuantWeight> quant_;
};

/// Token-id to dense-vector table.
class Embedding : public Module {
 public:
  Embedding(int64_t vocab_size, int64_t dim, Rng& rng);

  /// ids (length n, each in [0, vocab)) -> (n, dim).
  Tensor Forward(const std::vector<int>& ids, ExecContext* ctx = nullptr) const;

  int64_t vocab_size() const { return vocab_size_; }
  int64_t dim() const { return dim_; }
  /// Raw table (vocab, dim); exposed for weight tying in the MLM head.
  const Tensor& weight() const { return weight_; }

 private:
  int64_t vocab_size_;
  int64_t dim_;
  Tensor weight_;
};

/// Layer normalization over the last dimension with learned affine.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim);

  Tensor Forward(const Tensor& x, ExecContext* ctx = nullptr) const;

 private:
  Tensor gamma_;
  Tensor beta_;
};

/// Two-layer MLP head: Linear -> ReLU -> Linear, producing logits.
///
/// The paper's classifier networks (Sec. 4.3) use a ReLU hidden layer and a
/// sigmoid output; here the sigmoid lives in the loss / inference path, so
/// Forward returns logits.
class MlpClassifier : public Module {
 public:
  MlpClassifier(int64_t in_features, int64_t hidden, int64_t num_labels,
                Rng& rng);

  /// x (n, in) -> logits (n, num_labels).
  Tensor Forward(const Tensor& x, ExecContext* ctx = nullptr) const;

  /// Prepacks both Linears for the int8 inference path.
  int64_t PrepackQuant();

  int64_t num_labels() const { return out_.out_features(); }

 private:
  Linear hidden_;
  Linear out_;
};

}  // namespace taste::nn

#endif  // TASTE_NN_LAYERS_H_
