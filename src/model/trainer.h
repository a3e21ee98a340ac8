// Training procedures for the ADTD model: Masked Language Model
// pre-training on an unlabeled table corpus (paper Sec. 4.2.1) and
// multi-task fine-tuning on a labeled dataset (paper Sec. 6.1.3).

#ifndef TASTE_MODEL_TRAINER_H_
#define TASTE_MODEL_TRAINER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "model/adtd.h"
#include "text/wordpiece.h"

namespace taste::model {

/// Options for MLM pre-training.
struct PretrainOptions {
  int epochs = 1;
  int max_seq_len = 64;       // window length per training step
  float mask_prob = 0.15f;    // BERT masking rate
  float lr = 1e-3f;
  float clip_norm = 1.0f;
  uint64_t seed = 7;
  size_t max_documents = 0;   // 0 = use all documents
  int log_every = 0;          // steps between progress logs; 0 = silent
};

/// Pre-trains the shared encoder + embeddings of `model` with Masked
/// Language Modeling over `documents`. Returns the mean loss of the final
/// epoch.
Result<double> PretrainMlm(AdtdModel* model,
                           const std::vector<std::string>& documents,
                           const text::WordPieceTokenizer& tokenizer,
                           const PretrainOptions& options);

/// Model-agnostic hooks so non-ADTD models (the single-tower baselines)
/// can reuse the identical MLM pre-training loop.
struct MlmModelHooks {
  std::function<tensor::Tensor(const std::vector<int>&)> mlm_logits;
  std::vector<tensor::Tensor> parameters;
  std::function<void(bool)> set_training;
  int vocab_size = 0;
  int max_seq_len = 0;
};

/// The MLM loop over arbitrary hooks; PretrainMlm delegates here.
Result<double> PretrainMlmWithHooks(const MlmModelHooks& hooks,
                                    const std::vector<std::string>& documents,
                                    const text::WordPieceTokenizer& tokenizer,
                                    const PretrainOptions& options);

/// Options for supervised fine-tuning.
struct FineTuneOptions {
  int epochs = 2;
  float lr = 1.5e-3f;
  /// Linear learning-rate decay: lr falls to lr * final_lr_fraction over
  /// the course of training (1.0 = constant lr).
  float final_lr_fraction = 0.15f;
  float clip_norm = 1.0f;
  uint64_t seed = 11;
  bool random_sample = false;  // first-m vs random sampling
  uint64_t sample_seed = 0;
  int log_every = 0;           // tables between progress logs; 0 = silent
  /// Ablation: keep the automatic loss weights w1/w2 fixed at their
  /// initial value (equal weighting) instead of learning them.
  bool freeze_loss_weights = false;
  /// Train only the classifier heads (and loss weights); the encoder and
  /// embeddings stay frozen. This is the cheap adaptation mode used after
  /// ExtendAdtdModel (new types) and for feedback fine-tuning.
  bool classifier_only = false;
};

/// Fine-tunes all weights of an ADTD model (both towers jointly, with the
/// automatic weighted loss) on the labeled tables of a dataset.
///
/// Training reads tables through an in-process SimulatedDatabase so the
/// same metadata/statistics/histogram code paths are exercised as at
/// serving time; ground-truth labels come from the dataset.
class FineTuner {
 public:
  FineTuner(AdtdModel* model, const text::WordPieceTokenizer* tokenizer);

  /// Trains on dataset.tables[i] for i in table_indices. Returns the mean
  /// multi-task loss over the final epoch.
  Result<double> Train(const data::Dataset& dataset,
                       const std::vector<int>& table_indices,
                       const FineTuneOptions& options);

 private:
  AdtdModel* model_;
  const text::WordPieceTokenizer* tokenizer_;
};

}  // namespace taste::model

#endif  // TASTE_MODEL_TRAINER_H_
