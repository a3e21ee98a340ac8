// Single-tower, always-scan baseline detectors standing in for TURL
// (Deng et al., VLDB'21) and Doduo (Suhara et al., SIGMOD'22), built on the
// same substrate as ADTD so every comparison isolates the design axes the
// paper varies:
//   * both fetch metadata AND scan content for 100% of columns (one-shot);
//   * TurlLike uses a same-size encoder where column tokens attend the
//     table context and their own column only (TURL computes per-column
//     cross-attention against the current column's metadata);
//   * DoduoLike uses a LARGER encoder and mixes metadata and cell values
//     into one globally-attended sequence (Doduo concatenates column
//     values; metadata is folded into the values per the authors'
//     suggestion, paper Sec. 6.4).

#ifndef TASTE_BASELINES_SINGLE_TOWER_H_
#define TASTE_BASELINES_SINGLE_TOWER_H_

#include <map>
#include <memory>

#include "clouddb/database.h"
#include "core/detection_result.h"
#include "model/input_encoding.h"
#include "model/trainer.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "text/wordpiece.h"

namespace taste::baselines {

/// Attention scope of the combined metadata+content sequence.
enum class AttentionStyle {
  kColumnScoped,  // TURL-like: table segment + own column
  kGlobal,        // Doduo-like: everything attends everything
};

struct SingleTowerConfig {
  nn::EncoderConfig encoder;
  model::InputConfig input;
  int vocab_size = 0;
  int num_types = 0;
  int classifier_hidden = 128;
  AttentionStyle style = AttentionStyle::kColumnScoped;
  /// Positive-class weight of the multi-label BCE loss (see AdtdConfig).
  float bce_pos_weight = 8.0f;

  /// Same scale as AdtdConfig::Tiny — the paper's TURL shares TASTE's
  /// encoder size (L=4, A=12, H=312 at paper scale).
  static SingleTowerConfig TurlLike(int vocab_size, int num_types);
  /// ~3x larger encoder, mirroring Doduo's use of BERT-base (108M params
  /// vs 14.5M) relative to TURL/TASTE.
  static SingleTowerConfig DoduoLike(int vocab_size, int num_types);
};

/// Combined metadata+content encoding for the single tower.
struct SingleTowerEncoding {
  std::vector<int> token_ids;
  std::vector<int> column_anchors;
  std::vector<int> column_ordinals;
  std::vector<std::string> column_names;
  tensor::Tensor features;        // (ncols, kDim)
  tensor::Tensor attention_mask;  // (s, s)
  int num_columns = 0;
};

/// Builds SingleTowerEncoding from database metadata plus scanned content.
/// Pass an empty content map to emulate the privacy setting in which the
/// column-content input is an empty string (paper Sec. 6.4, Table 4).
class SingleTowerEncoder {
 public:
  SingleTowerEncoder(const text::WordPieceTokenizer* tokenizer,
                     const SingleTowerConfig& config);

  SingleTowerEncoding Encode(
      const clouddb::TableMetadata& meta,
      const std::map<int, std::vector<std::string>>& content) const;

 private:
  const text::WordPieceTokenizer* tokenizer_;
  SingleTowerConfig config_;
};

/// One encoder stack + one classifier head over combined sequences.
class SingleTowerModel : public nn::Module {
 public:
  SingleTowerModel(const SingleTowerConfig& config, Rng& rng);

  /// Logits (ncols, num_types).
  tensor::Tensor Forward(const SingleTowerEncoding& input) const;

  /// Multi-label BCE loss.
  tensor::Tensor Loss(const tensor::Tensor& logits,
                      const tensor::Tensor& targets) const;

  /// MLM logits for pre-training (weight-tied to the token embedding).
  tensor::Tensor MlmLogits(const std::vector<int>& ids) const;

  /// Hooks for the shared MLM pre-training loop.
  model::MlmModelHooks MlmHooks();

  const SingleTowerConfig& config() const { return config_; }

 private:
  tensor::Tensor Embed(const std::vector<int>& ids) const;

  SingleTowerConfig config_;
  nn::Embedding token_embedding_;
  nn::Embedding position_embedding_;
  nn::LayerNorm embedding_norm_;
  nn::TransformerEncoder encoder_;
  nn::MlpClassifier classifier_;
};

/// Serving options of the single-phase baselines.
struct SingleTowerOptions {
  bool random_sample = false;
  uint64_t sample_seed = 0;
  bool include_content = true;  // false = privacy setting (empty content)
  double admit_threshold = 0.5;
};

/// One-shot detector: fetch metadata, scan every column, predict.
class SingleTowerDetector {
 public:
  SingleTowerDetector(const SingleTowerModel* model,
                      const text::WordPieceTokenizer* tokenizer,
                      SingleTowerOptions options);

  Result<core::TableDetectionResult> DetectTable(
      clouddb::Connection* conn, const std::string& table_name) const;

  const SingleTowerOptions& options() const { return options_; }

 private:
  const SingleTowerModel* model_;
  SingleTowerOptions options_;
  SingleTowerEncoder encoder_;
};

/// Fine-tunes a single-tower model on labeled tables (always with full
/// content, matching how TURL/Doduo train).
Result<double> TrainSingleTower(SingleTowerModel* model,
                                const text::WordPieceTokenizer* tokenizer,
                                const data::Dataset& dataset,
                                const std::vector<int>& table_indices,
                                const model::FineTuneOptions& options);

}  // namespace taste::baselines

#endif  // TASTE_BASELINES_SINGLE_TOWER_H_
