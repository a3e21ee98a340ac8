// The TASTE two-phase detection framework (paper Sec. 3).
//
// Phase 1 (mandatory): fetch native metadata, run the metadata tower, and
// classify each (column, type) pair by the probability thresholds
// 0 <= alpha <= beta <= 1:
//   p >= beta          -> admitted immediately (A1);
//   p <= alpha         -> irrelevant;
//   alpha < p < beta   -> uncertain; the column joins C_u.
//
// Phase 2 (on demand): only for uncertain columns, scan content (first-m
// or random sample), run the content tower on top of the cached metadata
// latents, and admit types from the content classifier.
//
// The detector exposes the four stages individually (P1-prep, P1-infer,
// P2-prep, P2-infer) so the pipelined scheduler (Algorithm 1) can
// interleave them across tables; DetectTable() chains them for sequential
// use.

#ifndef TASTE_CORE_TASTE_DETECTOR_H_
#define TASTE_CORE_TASTE_DETECTOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clouddb/database.h"
#include "common/retry.h"
#include "core/detection_result.h"
#include "model/adtd.h"
#include "model/latent_cache.h"
#include "tensor/exec_context.h"
#include "text/wordpiece.h"

namespace taste::core {

/// Fault tolerance of the serving path (DESIGN.md §5), always on: every
/// metadata query and content scan is retried on transient errors and
/// guarded by a per-table circuit breaker. On the fault-free path the first
/// attempt succeeds and no breaker is kept, so the output is the same as a
/// detector without any of it.
struct ResilienceOptions {
  /// Attempts per metadata query or content scan (1 = no retry).
  int max_attempts = 4;
  /// Per-table circuit breaker so a dead table stops burning attempts.
  CircuitBreaker::Options breaker;
  /// On a permanent (or retry-exhausted) P2 scan failure, fall back to the
  /// P1 metadata-only prediction for the affected columns instead of
  /// failing the table (the paper's Table 4 shows metadata-only P1 holds
  /// F1 ≈ 0.90). When false, those columns are marked kFailed and the
  /// scan error is propagated.
  bool degrade_on_scan_failure = true;
  /// When > 0, degraded columns re-admit types from the P1 probabilities
  /// at this threshold (e.g. 0.5 reproduces the Table 4 privacy-mode
  /// admission rule alpha = beta = 0.5). 0 keeps the A1 admissions the
  /// normal P1 pass already made (bit-identical to an enable_p2 = false
  /// run with the same alpha/beta).
  double degraded_admit_threshold = 0.0;
};

/// Serving-time options of the TASTE framework.
struct TasteOptions {
  double alpha = 0.1;   // lower uncertainty threshold
  double beta = 0.9;    // upper uncertainty threshold
  /// m rows fetched per scanned table: ScanOptions' default, read-only.
  static constexpr int scan_rows = clouddb::ScanOptions{}.limit_rows;
  bool random_sample = false;   // first-m vs random sampling
  uint64_t sample_seed = 0;
  bool use_latent_cache = true;   // reuse metadata latents in P2
  bool enable_p2 = true;          // privacy mode: false = never scan
  size_t cache_capacity = 4096;
  /// Serving-time overrides of the model's input configuration (paper
  /// Sec. 6.8 varies l and n at detection time); 0 keeps the model default.
  int override_cells_per_column = 0;     // n
  int override_split_threshold = 0;      // l
  /// Fault tolerance: retries, circuit breaking, and metadata-only
  /// degradation.
  ResilienceOptions resilience = {};
};

/// Orchestrates the two phases over a trained ADTD model. Thread-safe for
/// concurrent stage execution on different jobs (the model is read-only at
/// inference; the latent cache is internally synchronized).
class TasteDetector {
 public:
  TasteDetector(const model::AdtdModel* model,
                const text::WordPieceTokenizer* tokenizer,
                TasteOptions options);

  /// Mutable state of one table's detection as it moves through stages.
  struct Job {
    std::string table_name;
    /// The table's latency budget / cancellation signal (not owned;
    /// nullptr = none). Stage entry points refuse to start work on a
    /// fired token, retry loops stop retrying, and the inference stages
    /// install it on their ExecContext so the ADTD forward can stop
    /// between encoder layers.
    const CancelToken* cancel = nullptr;
    // After P1 data preparation:
    std::vector<model::EncodedMetadata> chunks;
    // After P1 inference (entry i matches chunks[i]):
    std::vector<model::AdtdModel::MetadataEncoding> encodings;
    std::vector<std::vector<float>> p1_probs;       // per chunk, ncols*|S|
    std::vector<std::vector<int>> uncertain_columns;  // chunk-local indices
    bool needs_p2 = false;
    // After P2 data preparation: per metadata chunk, one or more content
    // batches (scanned columns are split into batches so every content
    // sequence fits the encoder's max_seq_len; empty for chunks with no
    // uncertain columns).
    std::vector<std::vector<model::EncodedContent>> contents;
    // Filled by P2 inference (or by P1 when P2 is skipped):
    TableDetectionResult result;
  };

  // -- Stage API (used by the pipeline scheduler) ---------------------------

  // The inference stages accept an optional tensor::ExecContext. The
  // context is bound for the duration of the stage so the model forward
  // gets buffer pooling / timing; nullptr preserves the historical
  // behaviour exactly. Each context must be used by one thread at a time —
  // the pipeline executor leases one per infer stage from exec_contexts().

  /// S1 of P1: fetch metadata, split wide tables, encode.
  Status PrepareP1(clouddb::Connection* conn, const std::string& table_name,
                   Job* job) const;
  /// S2 of P1: metadata-tower inference + threshold classification.
  /// Populates `result` fully when no column is uncertain.
  Status InferP1(Job* job, tensor::ExecContext* ctx = nullptr) const;
  /// S1 of P2: scan content of uncertain columns only.
  Status PrepareP2(clouddb::Connection* conn, Job* job) const;
  /// S2 of P2: content-tower inference over cached metadata latents and
  /// final A^c merge, one content forward per content batch on the calling
  /// thread. A fired token stops it between forwards (and discards a
  /// forward it interrupted); batches already applied keep their P2
  /// predictions.
  Status InferP2(Job* job, tensor::ExecContext* ctx = nullptr) const;

  /// Deadline-expiry degrade: serves every uncertain column that has no P2
  /// prediction yet from its P1 metadata-only probabilities (provenance
  /// kDegradedMetadataOnly, same admission rule as the scan-failure
  /// degrade). Requires P1 inference to have classified every chunk; call
  /// when a table's budget expires after P1 but before P2 finished.
  /// Columns P2 already decided keep their content-based prediction.
  /// Returns the number of columns degraded.
  int DegradeRemainingToMetadataOnly(Job* job) const;

  /// True when P1 inference has classified every chunk of `job` — the
  /// precondition for DegradeRemainingToMetadataOnly (and the pipeline's
  /// "degrade instead of expire" routing).
  static bool P1Complete(const Job& job) {
    return !job.chunks.empty() && job.p1_probs.size() == job.chunks.size();
  }

  // -- Convenience -----------------------------------------------------------

  /// Runs all four stages sequentially for one table on `job` (whose
  /// `cancel` the caller sets). With a token, expiry before P1 inference
  /// finished surfaces as a non-OK Status; expiry after P1 degrades the
  /// remaining uncertain columns to the metadata-only path and returns OK.
  /// On failure `job->result` keeps what the stages produced (counters,
  /// P1 columns marked kFailed), as the pipelined executor reports it.
  Status RunStages(clouddb::Connection* conn, const std::string& table_name,
                   Job* job, tensor::ExecContext* ctx = nullptr) const;

  /// RunStages on a fresh job, returning its result on success.
  Result<TableDetectionResult> DetectTable(
      clouddb::Connection* conn, const std::string& table_name,
      tensor::ExecContext* ctx = nullptr,
      const CancelToken* cancel = nullptr) const;

  const TasteOptions& options() const { return options_; }
  model::LatentCache& cache() const { return *cache_; }
  /// Serving contexts shared by every executor of this detector. They live
  /// as long as the detector, as the cache's latents do, so the buffers
  /// their pools recycle survive from one batch (or request) to the next
  /// instead of each batch building pools that cached latents then pin.
  tensor::ExecContextPool& exec_contexts() const { return *exec_contexts_; }
  const model::AdtdModel& model() const { return *model_; }

  /// Per-table circuit breakers. Exposed so executors can report breaker
  /// trips.
  const BreakerRegistry& breakers() const { return *breakers_; }

 private:
  std::string ChunkCacheKey(const std::string& table, size_t chunk) const;
  /// The latent cache's entry for chunk `index` of `table` when it can stand
  /// in for ForwardMetadata(chunk) (see UsableEntry), else nullopt.
  std::optional<model::AdtdModel::MetadataEncoding> CachedLatents(
      const std::string& table, size_t index,
      const model::EncodedMetadata& chunk) const;
  /// The metadata latents P2 attends over for `chunk`: the latent cache's
  /// entry if it is usable for this chunk, then the job's own P1 copy,
  /// otherwise a fresh metadata-tower forward (no-cache configuration).
  model::AdtdModel::MetadataEncoding P2Latents(const Job& job,
                                              size_t chunk) const;
  /// Applies the alpha/beta rules to one chunk's P1 probabilities.
  void ClassifyP1Chunk(const model::EncodedMetadata& chunk,
                       const std::vector<float>& probs, Job* job) const;
  /// Writes one content batch's sigmoid probabilities into the job result
  /// (A^c = A2^c admission). `result_offset` is the chunk's first column
  /// index.
  void ApplyContentProbs(const model::EncodedContent& content,
                         const std::vector<float>& probs, int result_offset,
                         Job* job) const;
  /// Marks one chunk's uncertain columns as degraded-to-P1 (or failed) in
  /// the job result. `result_offset` is the chunk's first column index.
  void DegradeChunk(size_t chunk_index, int result_offset,
                    ResultProvenance provenance, Job* job) const;
  /// Runs one database call of `table` (returning Status or Result<T>)
  /// behind the table's circuit breaker, retrying transient errors up to
  /// ResilienceOptions::max_attempts; counts retries, deadline misses and
  /// short circuits into the job result.
  template <typename Fn>
  auto GuardedCall(const std::string& table, Fn&& fn, Job* job) const
      -> decltype(fn());

  const model::AdtdModel* model_;
  const text::WordPieceTokenizer* tokenizer_;
  TasteOptions options_;
  model::InputConfig input_config_;  // model config + serving overrides
  model::InputEncoder encoder_;
  std::unique_ptr<model::LatentCache> cache_;
  std::unique_ptr<tensor::ExecContextPool> exec_contexts_;
  std::unique_ptr<BreakerRegistry> breakers_;
};

}  // namespace taste::core

#endif  // TASTE_CORE_TASTE_DETECTOR_H_
