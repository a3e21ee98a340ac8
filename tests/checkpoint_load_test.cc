// Loads the two checkpoints the end-to-end benchmark (perfbench/) serves,
// straight from the committed .taste_model_cache in the source tree, through
// the benchmark's own load path: the stack's tokenizer fixes the
// vocabulary, then nn::LoadCheckpoint, PrepackQuantWeights and
// VerifyQuantScales. A truncated or stale commit fails here, naming the
// file, instead of being retrained silently by `perfbench/run.py --prepare`.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "common/rng.h"
#include "data/semantic_types.h"
#include "eval/experiment.h"
#include "model/adtd.h"
#include "nn/serialize.h"

namespace taste {
namespace {

/// Committed model cache of the source tree (set by tests/CMakeLists.txt),
/// so the test does not depend on the directory ctest runs it from.
constexpr char kModelCacheDir[] = TASTE_MODEL_CACHE_DIR;

/// Mirrors perfbench's ProfileStackOptions and its checkpoint file name.
void ExpectServedCheckpointLoads(const data::DatasetProfile& profile,
                                 int finetune_epochs, const char* file) {
  const std::string path = std::string(kModelCacheDir) + "/" + file;
  ASSERT_TRUE(std::filesystem::is_regular_file(path))
      << "missing committed checkpoint " << path;
  eval::StackOptions o;
  o.num_tables = 240;
  o.vocab_size = 700;
  o.pretrain_epochs = 1;
  o.finetune_epochs = finetune_epochs;
  o.train_adtd = false;
  o.train_adtd_hist = false;
  o.train_baselines = false;
  o.cache_dir = "";  // nothing is trained, so nothing may be written
  o.seed = 1234;
  auto stack = eval::BuildStack(profile, o);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  const model::AdtdConfig cfg = model::AdtdConfig::Tiny(
      stack->tokenizer->vocab().size(),
      data::SemanticTypeRegistry::Default().size());
  Rng rng(o.seed);
  model::AdtdModel m(cfg, rng);
  nn::QuantScalesMap scales;
  const Status loaded = nn::LoadCheckpoint(&m, path, &scales);
  ASSERT_TRUE(loaded.ok()) << path << ": " << loaded.ToString();
  m.PrepackQuantWeights();
  if (!scales.empty()) {
    const Status verified = m.VerifyQuantScales(scales);
    EXPECT_TRUE(verified.ok()) << path << ": " << verified.ToString();
  }
}

TEST(CheckpointLoadTest, WikiLikeServedAdtdLoads) {
  ExpectServedCheckpointLoads(
      data::DatasetProfile::WikiLike(), 12,
      "cv2_WikiLike_n240_v700_p1_f12_lr0.002_s1234_adtd.ckpt");
}

TEST(CheckpointLoadTest, GitLikeServedAdtdLoads) {
  ExpectServedCheckpointLoads(
      data::DatasetProfile::GitLike(), 28,
      "cv2_GitLike_n240_v700_p1_f28_lr0.002_s1234_adtd.ckpt");
}

}  // namespace
}  // namespace taste
