#include "nn/layers.h"

namespace taste::nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = RegisterParameter(
      "weight", Tensor::Randn({in_features, out_features}, rng, 0.02f,
                              /*requires_grad=*/true));
  bias_ = RegisterParameter(
      "bias", Tensor::Zeros({out_features}, /*requires_grad=*/true));
}

Tensor Linear::Forward(const Tensor& x, ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  if (quant_ != nullptr) {
    if (ExecContext* cur = ExecContext::Current();
        cur != nullptr && cur->quant_active() && !tensor::GradEnabled()) {
      return tensor::QuantLinear(x, *quant_, bias_);
    }
  }
  return tensor::Linear(x, weight_, bias_);
}

int64_t Linear::PrepackQuant() {
  quant_ = std::make_shared<tensor::quant::PackedQuantWeight>(
      tensor::quant::PackWeightPerChannel(weight_.data(), in_features_,
                                          out_features_));
  return quant_->PackedBytes();
}

std::vector<float> Linear::QuantScales() const {
  return quant_ != nullptr ? quant_->scales : std::vector<float>{};
}

Embedding::Embedding(int64_t vocab_size, int64_t dim, Rng& rng)
    : vocab_size_(vocab_size), dim_(dim) {
  weight_ = RegisterParameter(
      "weight",
      Tensor::Randn({vocab_size, dim}, rng, 0.02f, /*requires_grad=*/true));
}

Tensor Embedding::Forward(const std::vector<int>& ids, ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  return tensor::EmbeddingLookup(weight_, ids);
}

LayerNorm::LayerNorm(int64_t dim) {
  gamma_ = RegisterParameter("gamma",
                             Tensor::Full({dim}, 1.0f, /*requires_grad=*/true));
  beta_ = RegisterParameter("beta",
                            Tensor::Zeros({dim}, /*requires_grad=*/true));
}

Tensor LayerNorm::Forward(const Tensor& x, ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  return tensor::LayerNorm(x, gamma_, beta_);
}

MlpClassifier::MlpClassifier(int64_t in_features, int64_t hidden,
                             int64_t num_labels, Rng& rng)
    : hidden_(in_features, hidden, rng), out_(hidden, num_labels, rng) {
  RegisterModule("hidden", &hidden_);
  RegisterModule("out", &out_);
}

Tensor MlpClassifier::Forward(const Tensor& x, ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  return out_.Forward(tensor::Relu(hidden_.Forward(x)));
}

int64_t MlpClassifier::PrepackQuant() {
  return hidden_.PrepackQuant() + out_.PrepackQuant();
}

}  // namespace taste::nn
