// The Asymmetric Double-Tower Detection (ADTD) model — paper Sec. 4.
//
// One set of Transformer parameters, two dataflows:
//  * The METADATA TOWER self-attends over the metadata sequence; its layer
//    outputs Encode_i^{M} are the latent representations cached and reused.
//  * The CONTENT TOWER attends asymmetrically: at layer i the query is the
//    content latents Encode_{i-1}^{D} while keys/values are the
//    concatenation Encode_{i-1}^{M} (+) Encode_{i-1}^{D}, of which a
//    column's content tokens see the metadata and their own column only
//    (computed per column segment, not masked out of a dense product). The
//    metadata latents are read from the metadata tower (or the latent
//    cache) and are never recomputed.
//
// Classifier heads (Sec. 4.3):
//  * f1(c) = Classify_meta(Encode_L^{M}[anchor_c] (+) M_n^c)
//  * f2(c) = Classify_cont(Encode_L^{D}[anchor_c] (+) Encode_L^{M}[anchor_c]
//            (+) M_n^c)
// Both emit |S| logits; probabilities are sigmoids (multi-label).
//
// Training (Sec. 4.4) minimizes the automatic weighted sum of the two BCE
// losses with learnable weights w1, w2:
//   L = sum_i L_i / (2 w_i^2) + ln(1 + w_i^2).

#ifndef TASTE_MODEL_ADTD_H_
#define TASTE_MODEL_ADTD_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/input_encoding.h"
#include "nn/layers.h"
#include "nn/transformer.h"

namespace taste::model {

/// Full model hyperparameters.
struct AdtdConfig {
  nn::EncoderConfig encoder;
  InputConfig input;
  int vocab_size = 0;
  int num_types = 0;
  int meta_classifier_hidden = 64;      // paper: 500
  int content_classifier_hidden = 128;  // paper: 1000
  float embedding_dropout = 0.0f;
  /// Positive-class weight of the multi-label BCE losses. With |S| ~ 47
  /// types and 1-2 positives per column the raw BCE gradient is dominated
  /// by negatives; at this reproduction's scale (tiny model, small corpus,
  /// few epochs) the counterweight is needed for calibrated confidences.
  float bce_pos_weight = 8.0f;

  /// Small configuration for one-core benchmarks.
  static AdtdConfig Tiny(int vocab_size, int num_types);
  /// The paper's TinyBERT-scale configuration (L=4, A=12, H=312, I=1200,
  /// classifier hiddens 500/1000, input budget 150/10/10).
  static AdtdConfig Paper(int vocab_size, int num_types);
};

class AdtdModel : public nn::Module {
 public:
  AdtdModel(const AdtdConfig& config, Rng& rng);

  /// Everything the metadata tower produced for one table chunk. This is
  /// exactly the unit stored in the latent cache: `layer_latents[i]` is
  /// Encode_i^{M} (index 0 = embedding output), which the content tower
  /// needs at its layer i+1.
  struct MetadataEncoding {
    std::vector<tensor::Tensor> layer_latents;  // size L+1
    tensor::Tensor anchor_states;               // (ncols, H)
    tensor::Tensor logits;                      // (ncols, num_types)
  };

  /// Runs the metadata tower (P1's model). `ctx`, if given, is bound for
  /// the duration of the forward (buffer pooling / intra-op parallelism /
  /// timing); nullptr inherits the calling thread's current context.
  MetadataEncoding ForwardMetadata(const EncodedMetadata& input,
                                   tensor::ExecContext* ctx = nullptr) const;

  /// Runs the content tower on top of (possibly cached) metadata latents.
  /// Each scanned column's segment attends over the metadata latents and
  /// its own segment only (nn::TransformerBlock::ForwardSegmented).
  /// Returns logits (|scanned|, num_types) aligned with content.scanned.
  tensor::Tensor ForwardContent(const EncodedContent& content,
                                const EncodedMetadata& meta,
                                const MetadataEncoding& meta_encoding,
                                tensor::ExecContext* ctx = nullptr) const;

  /// One unit of a coalesced P2 forward: a content batch plus the metadata
  /// chunk and latents it attends over. Pointees must outlive the call;
  /// items may come from different tables.
  struct P2BatchItem {
    const EncodedContent* content;
    const EncodedMetadata* meta;
    const MetadataEncoding* meta_encoding;
  };

  /// Batched content tower: packs N independent ForwardContent calls into
  /// one forward whose Linear/LayerNorm/FFN/classifier ops run as single
  /// GEMMs over the row-concatenation of all items, while each item's
  /// column segments attend over its own metadata latents and cross_mask.
  /// Returns one logits tensor per item, each byte-identical to what
  /// ForwardContent(item) returns — regardless of batch composition or
  /// order (see tensor/kernels.h: every output element accumulates in
  /// fixed k-order from only its own row/column). Inference-only; does not
  /// observe cancellation mid-forward (callers gate cancellation at batch
  /// granularity — batches are small and bounded).
  std::vector<tensor::Tensor> ForwardContentBatch(
      const std::vector<P2BatchItem>& items,
      tensor::ExecContext* ctx = nullptr) const;

  /// Automatic weighted multi-task loss over the two towers' BCE losses.
  tensor::Tensor MultiTaskLoss(const tensor::Tensor& meta_logits,
                               const tensor::Tensor& meta_targets,
                               const tensor::Tensor& content_logits,
                               const tensor::Tensor& content_targets) const;

  /// Metadata-tower-only loss (used when a chunk has no content columns).
  tensor::Tensor MetaOnlyLoss(const tensor::Tensor& meta_logits,
                              const tensor::Tensor& meta_targets) const;

  /// MLM logits (len, vocab) over a raw token sequence; the output
  /// projection is weight-tied to the token embedding. Drives pre-training.
  tensor::Tensor MlmLogits(const std::vector<int>& ids) const;

  const AdtdConfig& config() const { return config_; }
  /// Current automatic loss weights (w1, w2), for inspection.
  std::pair<float, float> loss_weights() const;

  /// Quantizes (per output channel, symmetric int8) and packs every Linear
  /// the P2 content tower runs — encoder q/k/v/out + FFN projections and
  /// the content classifier — once, from the current weights. Idempotent
  /// and deterministic; call after load / training, never concurrently
  /// with forwards. The packed panels only execute inside the content
  /// forwards' ScopedQuantRegion under a kInt8 context, so P1 and the
  /// latent cache stay fp32 regardless. Returns the packed bytes added.
  int64_t PrepackQuantWeights();
  bool quant_prepacked() const { return quant_prepacked_; }

  /// Verifies recomputed per-channel scales against a checkpoint's
  /// quantization manifest (nn::LoadCheckpoint's quant_scales output):
  /// every name present in `expected` must match this model's scales
  /// bit-exactly — a mismatch means the weights or the quantization code
  /// drifted since the checkpoint was written.
  Status VerifyQuantScales(
      const std::map<std::string, std::vector<float>>& expected) const;

 private:
  /// Token + position embedding followed by LayerNorm.
  tensor::Tensor Embed(const std::vector<int>& ids) const;
  /// Same, with caller-provided positions (packed multi-sequence embedding
  /// restarts positions at 0 per segment). Length checks are the caller's.
  tensor::Tensor EmbedWithPositions(const std::vector<int>& ids,
                                    const std::vector<int>& positions) const;

  AdtdConfig config_;
  nn::Embedding token_embedding_;
  nn::Embedding position_embedding_;
  nn::LayerNorm embedding_norm_;
  nn::TransformerEncoder encoder_;
  nn::MlpClassifier meta_classifier_;
  nn::MlpClassifier content_classifier_;
  tensor::Tensor w1_;  // automatic loss weights (learnable scalars)
  tensor::Tensor w2_;
  bool quant_prepacked_ = false;
};

/// Builds the (ncols, num_types) multi-hot target matrix from per-column
/// ground-truth label lists.
tensor::Tensor BuildTargets(const std::vector<std::vector<int>>& labels,
                            int num_types);

}  // namespace taste::model

#endif  // TASTE_MODEL_ADTD_H_
