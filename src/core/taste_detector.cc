#include "core/taste_detector.h"

#include <cstring>
#include <deque>
#include <map>
#include <utility>

#include "common/string_util.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace taste::core {

using model::AdtdModel;
using model::EncodedContent;
using model::EncodedMetadata;

namespace {

model::InputConfig ApplyOverrides(model::InputConfig config,
                                  const TasteOptions& options) {
  if (options.override_cells_per_column > 0) {
    config.cells_per_column = options.override_cells_per_column;
  }
  if (options.override_split_threshold > 0) {
    config.column_split_threshold = options.override_split_threshold;
  }
  return config;
}

/// Deterministic jitter salt for the retry loops of one table.
uint64_t TableSalt(const std::string& table, uint64_t extra) {
  return std::hash<std::string>{}(table) ^ (extra * 0x9E3779B97F4A7C15ULL);
}

}  // namespace

TasteDetector::TasteDetector(const AdtdModel* model,
                             const text::WordPieceTokenizer* tokenizer,
                             TasteOptions options)
    : model_(model),
      tokenizer_(tokenizer),
      options_(options),
      input_config_(ApplyOverrides(model->config().input, options)),
      encoder_(tokenizer, input_config_),
      cache_(std::make_unique<model::LatentCache>(
          options.cache_capacity, std::max(1, options.cache_shards))) {
  TASTE_CHECK(model_ != nullptr && tokenizer_ != nullptr);
  TASTE_CHECK_MSG(options_.alpha >= 0 && options_.alpha <= options_.beta &&
                      options_.beta <= 1.0,
                  "need 0 <= alpha <= beta <= 1");
  if (options_.resilience.enabled && options_.resilience.use_breaker) {
    breakers_ = std::make_unique<BreakerRegistry>(options_.resilience.breaker);
  }
}

CircuitBreaker* TasteDetector::BreakerFor(const std::string& table) const {
  return breakers_ != nullptr ? breakers_->Get(table) : nullptr;
}

std::string TasteDetector::ChunkCacheKey(const std::string& table,
                                         size_t chunk) const {
  return table + "#" + std::to_string(chunk);
}

Status TasteDetector::PrepareP1(clouddb::Connection* conn,
                                const std::string& table_name,
                                Job* job) const {
  TASTE_SPAN("detector.p1_prep");
  TASTE_CHECK(conn != nullptr && job != nullptr);
  job->table_name = table_name;
  if (CancelledNow(job->cancel)) {
    return job->cancel->ToStatus("P1 prep for " + table_name);
  }
  const ResilienceOptions& rz = options_.resilience;
  clouddb::TableMetadata meta;
  if (!rz.enabled) {
    TASTE_ASSIGN_OR_RETURN(meta, conn->GetTableMetadata(table_name));
  } else {
    CircuitBreaker* breaker = BreakerFor(table_name);
    if (breaker != nullptr && !breaker->Allow()) {
      ++job->result.breaker_short_circuits;
      return Status::Unavailable("circuit open for table: " + table_name);
    }
    RetryObservation obs;
    auto fetched = RetryCall(
        rz.retry, TableSalt(table_name, /*extra=*/1), /*sleep_ms=*/{},
        [&] { return conn->GetTableMetadata(table_name); }, &obs,
        job->cancel);
    job->result.retries += obs.retries;
    job->result.deadline_misses += obs.deadline_miss ? 1 : 0;
    if (!fetched.ok()) {
      if (breaker != nullptr) breaker->RecordFailure();
      return fetched.status();
    }
    if (breaker != nullptr) breaker->RecordSuccess();
    meta = std::move(*fetched);
  }
  if (meta.columns.empty()) {
    return Status::Invalid("table has no columns: " + table_name);
  }
  for (const auto& chunk :
       model::SplitWideTable(meta, input_config_.column_split_threshold)) {
    job->chunks.push_back(encoder_.EncodeMetadata(chunk));
  }
  return Status::OK();
}

void TasteDetector::ClassifyP1Chunk(const EncodedMetadata& chunk,
                                    const std::vector<float>& probs,
                                    Job* job) const {
  const int num_types = model_->config().num_types;
  std::vector<int> uncertain;
  for (int c = 0; c < chunk.num_columns; ++c) {
    ColumnPrediction pred;
    pred.column_name = chunk.column_names[static_cast<size_t>(c)];
    pred.ordinal = chunk.column_ordinals[static_cast<size_t>(c)];
    pred.probabilities.assign(
        probs.begin() + static_cast<size_t>(c) * num_types,
        probs.begin() + static_cast<size_t>(c + 1) * num_types);
    bool is_uncertain = false;
    for (int s = 0; s < num_types; ++s) {
      float p = pred.probabilities[static_cast<size_t>(s)];
      if (p >= options_.beta) {
        pred.admitted_types.push_back(s);  // A1
      } else if (options_.enable_p2 && p > options_.alpha &&
                 p < options_.beta) {
        is_uncertain = true;
      }
    }
    if (is_uncertain) uncertain.push_back(c);
    job->result.columns.push_back(std::move(pred));
    ++job->result.total_columns;
  }
  job->uncertain_columns.push_back(std::move(uncertain));
  if (!job->uncertain_columns.back().empty()) job->needs_p2 = true;
}

namespace {

bool SameTensorBytes(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.defined() != b.defined()) return false;
  if (!a.defined()) return true;
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// True when a cached entry's input is exactly the chunk we are about to
/// encode — the guard that makes cache reuse byte-identical: latents are
/// only reused when the metadata tower would have been fed the same bits
/// (same tokens, anchors, features, masks). A stale entry under a colliding
/// key is recomputed instead of trusted.
bool SameEncodedInput(const EncodedMetadata& a, const EncodedMetadata& b) {
  return a.table_name == b.table_name && a.num_columns == b.num_columns &&
         a.token_ids == b.token_ids && a.column_anchors == b.column_anchors &&
         a.column_ordinals == b.column_ordinals &&
         a.column_names == b.column_names &&
         SameTensorBytes(a.features, b.features) &&
         SameTensorBytes(a.attention_mask, b.attention_mask);
}

}  // namespace

Status TasteDetector::InferP1(Job* job, tensor::ExecContext* ctx) const {
  TASTE_SPAN("detector.p1_infer");
  TASTE_CHECK(job != nullptr);
  if (job->chunks.empty()) {
    return Status::Invalid("InferP1 before PrepareP1");
  }
  tensor::ScopedExecContext scope(ctx);
  // Install the table's token on whichever context is bound (the ctx
  // argument or an outer binding) so the encoder loop can stop between
  // layers when the budget fires mid-forward.
  tensor::ScopedCancelToken cancel_scope(tensor::ExecContext::Current(),
                                         job->cancel);
  tensor::NoGradGuard no_grad;
  job->result.table_name = job->table_name;
  for (size_t i = 0; i < job->chunks.size(); ++i) {
    if (CancelledNow(job->cancel)) {
      return job->cancel->ToStatus("P1 inference for " + job->table_name);
    }
    const EncodedMetadata& chunk = job->chunks[i];
    AdtdModel::MetadataEncoding enc;
    bool reused = false;
    if (options_.use_latent_cache) {
      // Consult the cache — local shards, then the cross-replica plane
      // (DESIGN.md §14) — before paying for the metadata tower. Reuse is
      // byte-identical by construction: ForwardMetadata is deterministic,
      // and SameEncodedInput proves the cached latents came from exactly
      // these input bits. Any miss, timeout, or mismatch recomputes.
      if (auto cached = cache_->GetOrFetch(ChunkCacheKey(job->table_name, i),
                                           job->cancel)) {
        if (SameEncodedInput(cached->input, chunk)) {
          enc = std::move(cached->encoding);
          reused = true;
        }
      }
    }
    if (!reused) {
      enc = model_->ForwardMetadata(chunk);
      if (CancelledNow(job->cancel)) {
        // The forward may have bailed between layers: the encoding is
        // (potentially) partial — never classify or cache it.
        return job->cancel->ToStatus("P1 inference for " + job->table_name);
      }
    }
    std::vector<float> probs = tensor::SigmoidValues(enc.logits);
    job->p1_probs.push_back(probs);
    ClassifyP1Chunk(chunk, probs, job);
    if (options_.use_latent_cache) {
      if (!reused) {
        // A genuine compute: park it locally and offer it to the plane.
        // Cache-sourced entries are deliberately not re-Put or republished
        // (GetOrFetch already refreshed recency; no echo loops).
        const std::string key = ChunkCacheKey(job->table_name, i);
        cache_->Put(key, {chunk, enc});
        cache_->PublishToRemote(key, {chunk, enc});
      }
      job->encodings.push_back(std::move(enc));
    }
    // Without caching, the latents are dropped here and P2 (if entered)
    // must re-run the metadata tower — the measurable cost of disabling
    // multi-task latent reuse.
  }
  return Status::OK();
}

void TasteDetector::DegradeChunk(size_t chunk_index, int result_offset,
                                 ResultProvenance provenance,
                                 Job* job) const {
  const double threshold = options_.resilience.degraded_admit_threshold;
  for (int c : job->uncertain_columns[chunk_index]) {
    ColumnPrediction& pred =
        job->result.columns[static_cast<size_t>(result_offset + c)];
    pred.provenance = provenance;
    if (provenance == ResultProvenance::kFailed) {
      pred.admitted_types.clear();
      ++job->result.failed_columns;
      continue;
    }
    if (threshold > 0.0) {
      // Re-admit from the P1 probabilities under the degraded-mode rule
      // (threshold 0.5 = the paper's Table 4 privacy-mode admission).
      pred.admitted_types.clear();
      for (size_t s = 0; s < pred.probabilities.size(); ++s) {
        if (pred.probabilities[s] >= threshold) {
          pred.admitted_types.push_back(static_cast<int>(s));
        }
      }
    }
    ++job->result.degraded_columns;
  }
}

Status TasteDetector::PrepareP2(clouddb::Connection* conn, Job* job) const {
  TASTE_SPAN("detector.p2_prep");
  TASTE_CHECK(conn != nullptr && job != nullptr);
  if (!job->needs_p2) return Status::OK();
  if (CancelledNow(job->cancel)) {
    return job->cancel->ToStatus("P2 prep for " + job->table_name);
  }
  TASTE_CHECK(job->uncertain_columns.size() == job->chunks.size());
  job->contents.resize(job->chunks.size());
  const ResilienceOptions& rz = options_.resilience;
  CircuitBreaker* breaker =
      rz.enabled ? BreakerFor(job->table_name) : nullptr;
  // Scanned columns are encoded in batches sized so that each content
  // sequence fits the encoder (wide tables + large n would otherwise
  // overflow max_seq_len).
  const int64_t segment = input_config_.segment_len();
  const int64_t max_cols_per_batch =
      std::max<int64_t>(1, model_->config().encoder.max_seq_len / segment);
  int result_offset = 0;
  Status first_error;  // sticky, only used when degradation is disabled
  for (size_t i = 0; i < job->chunks.size(); ++i) {
    const std::vector<int>& uncertain = job->uncertain_columns[i];
    const int offset = result_offset;
    result_offset += job->chunks[i].num_columns;
    if (uncertain.empty()) continue;
    std::vector<std::string> names;
    names.reserve(uncertain.size());
    for (int c : uncertain) {
      names.push_back(job->chunks[i].column_names[static_cast<size_t>(c)]);
    }
    const clouddb::ScanOptions scan_options = {
        .limit_rows = options_.scan_rows,
        .random_sample = options_.random_sample,
        .sample_seed = options_.sample_seed};
    auto scan = [&] {
      return conn->ScanColumns(job->table_name, names, scan_options);
    };
    Result<std::vector<std::vector<std::string>>> values = [&]()
        -> Result<std::vector<std::vector<std::string>>> {
      if (!rz.enabled) return scan();
      if (breaker != nullptr && !breaker->Allow()) {
        ++job->result.breaker_short_circuits;
        return Status::Unavailable("circuit open for table: " +
                                   job->table_name);
      }
      RetryObservation obs;
      auto r = RetryCall(rz.retry, TableSalt(job->table_name, 2 + i),
                         /*sleep_ms=*/{}, scan, &obs, job->cancel);
      job->result.retries += obs.retries;
      job->result.deadline_misses += obs.deadline_miss ? 1 : 0;
      if (breaker != nullptr) {
        if (r.ok()) {
          breaker->RecordSuccess();
        } else {
          breaker->RecordFailure();
        }
      }
      return r;
    }();
    if (!values.ok()) {
      if (!rz.enabled) return values.status();
      // Permanent (or retry-exhausted) scan failure: fall back to the P1
      // metadata-only prediction, or mark the columns failed.
      if (rz.degrade_on_scan_failure) {
        DegradeChunk(i, offset, ResultProvenance::kDegradedMetadataOnly, job);
        continue;
      }
      DegradeChunk(i, offset, ResultProvenance::kFailed, job);
      if (first_error.ok()) first_error = values.status();
      continue;
    }
    for (size_t begin = 0; begin < uncertain.size();
         begin += static_cast<size_t>(max_cols_per_batch)) {
      size_t end = std::min(uncertain.size(),
                            begin + static_cast<size_t>(max_cols_per_batch));
      std::map<int, std::vector<std::string>> by_column;
      for (size_t k = begin; k < end; ++k) {
        by_column[uncertain[k]] = std::move((*values)[k]);
      }
      job->contents[i].push_back(
          encoder_.EncodeContent(job->chunks[i], by_column));
    }
    job->result.columns_scanned += static_cast<int>(uncertain.size());
  }
  return first_error;
}

void TasteDetector::ApplyContentProbs(const EncodedContent& content,
                                      const std::vector<float>& probs,
                                      int result_offset, Job* job) const {
  const int num_types = model_->config().num_types;
  // A^c = A2^c for uncertain columns.
  for (size_t k = 0; k < content.scanned.size(); ++k) {
    int local = content.scanned[k];
    ColumnPrediction& pred =
        job->result.columns[static_cast<size_t>(result_offset + local)];
    pred.went_to_p2 = true;
    pred.admitted_types.clear();
    pred.probabilities.assign(
        probs.begin() + static_cast<int64_t>(k) * num_types,
        probs.begin() + static_cast<int64_t>(k + 1) * num_types);
    for (int s = 0; s < num_types; ++s) {
      if (pred.probabilities[static_cast<size_t>(s)] >=
          options_.p2_admit_threshold) {
        pred.admitted_types.push_back(s);
      }
    }
  }
}

Status TasteDetector::InferP2(Job* job, tensor::ExecContext* ctx,
                              P2ForwardService* service) const {
  TASTE_SPAN("detector.p2_infer");
  TASTE_CHECK(job != nullptr);
  if (!job->needs_p2) return Status::OK();
  if (job->contents.size() != job->chunks.size()) {
    return Status::Invalid("InferP2 before PrepareP2");
  }
  tensor::ScopedExecContext scope(ctx);
  tensor::ScopedCancelToken cancel_scope(tensor::ExecContext::Current(),
                                         job->cancel);
  tensor::NoGradGuard no_grad;

  if (service != nullptr) {
    // Serving-scheduler path: gather ALL of the job's pending content
    // forwards and hand them over as ONE group. A table's own chunks are
    // the densest coalescing opportunity a few-core box ever sees —
    // submitted together they pack into shared batched forwards instead of
    // trickling in one at a time. Per-item results are byte-identical to
    // the direct path; a token firing while queued, or a breaker-open
    // fast-fail, surfaces here as that item's Status.
    std::deque<AdtdModel::MetadataEncoding> encodings;  // pointer-stable
    std::vector<AdtdModel::P2BatchItem> items;
    std::vector<std::pair<const EncodedContent*, int>> origin;  // + offset
    int offset = 0;
    for (size_t i = 0; i < job->chunks.size(); ++i) {
      const EncodedMetadata& chunk = job->chunks[i];
      if (!job->contents[i].empty()) {
        // Metadata latents: latent cache first, then the job's own copy,
        // otherwise recompute the metadata tower (no-cache configuration).
        AdtdModel::MetadataEncoding enc;
        bool have = false;
        if (options_.use_latent_cache) {
          if (auto hit = cache_->Get(ChunkCacheKey(job->table_name, i))) {
            enc = std::move(hit->encoding);
            have = true;
          } else if (i < job->encodings.size()) {
            enc = job->encodings[i];
            have = true;
          }
        }
        if (!have) enc = model_->ForwardMetadata(chunk);
        encodings.push_back(std::move(enc));
        for (const EncodedContent& content : job->contents[i]) {
          if (content.scanned.empty()) continue;
          items.push_back({&content, &chunk, &encodings.back()});
          origin.emplace_back(&content, offset);
        }
      }
      offset += chunk.num_columns;
    }
    if (items.empty()) return Status::OK();
    if (CancelledNow(job->cancel)) {
      return job->cancel->ToStatus("P2 inference for " + job->table_name);
    }
    std::vector<Result<tensor::Tensor>> results =
        service->ForwardP2Many(job->table_name, items, job->cancel, ctx);
    TASTE_CHECK(results.size() == items.size());
    for (size_t k = 0; k < results.size(); ++k) {
      // First non-OK item stops the apply loop: columns already decided by
      // earlier items keep their P2 predictions, the executor degrades the
      // rest — the same partial-progress contract as the direct path.
      if (!results[k].ok()) return results[k].status();
      if (CancelledNow(job->cancel)) {
        return job->cancel->ToStatus("P2 inference for " + job->table_name);
      }
      std::vector<float> probs = tensor::SigmoidValues(*results[k]);
      ApplyContentProbs(*origin[k].first, probs, origin[k].second, job);
    }
    return Status::OK();
  }

  int result_offset = 0;
  for (size_t i = 0; i < job->chunks.size(); ++i) {
    const EncodedMetadata& chunk = job->chunks[i];
    if (!job->contents[i].empty()) {
      // Metadata latents: latent cache first, then the job's own copy,
      // otherwise recompute the metadata tower (no-cache configuration).
      AdtdModel::MetadataEncoding enc;
      bool have = false;
      if (options_.use_latent_cache) {
        if (auto hit = cache_->Get(ChunkCacheKey(job->table_name, i))) {
          enc = std::move(hit->encoding);
          have = true;
        } else if (i < job->encodings.size()) {
          enc = job->encodings[i];
          have = true;
        }
      }
      if (!have) enc = model_->ForwardMetadata(chunk);
      for (const EncodedContent& content : job->contents[i]) {
        if (content.scanned.empty()) continue;
        if (CancelledNow(job->cancel)) {
          // Columns already decided by earlier content batches keep their
          // P2 predictions; the executor degrades the rest.
          return job->cancel->ToStatus("P2 inference for " +
                                       job->table_name);
        }
        tensor::Tensor logits = model_->ForwardContent(content, chunk, enc);
        if (CancelledNow(job->cancel)) {
          // The cross-attention forward may have bailed between layers
          // (unbatched) — and either way an expired table must not keep
          // absorbing fresh predictions. Discard the logits.
          return job->cancel->ToStatus("P2 inference for " +
                                       job->table_name);
        }
        std::vector<float> probs = tensor::SigmoidValues(logits);
        ApplyContentProbs(content, probs, result_offset, job);
      }
    }
    result_offset += chunk.num_columns;
  }
  return Status::OK();
}

int TasteDetector::DegradeRemainingToMetadataOnly(Job* job) const {
  TASTE_CHECK(job != nullptr);
  if (!P1Complete(*job)) return 0;
  const double threshold = options_.resilience.degraded_admit_threshold;
  int degraded = 0;
  int result_offset = 0;
  for (size_t i = 0; i < job->chunks.size(); ++i) {
    for (int c : job->uncertain_columns[i]) {
      ColumnPrediction& pred =
          job->result.columns[static_cast<size_t>(result_offset + c)];
      if (pred.went_to_p2) continue;  // P2 already decided this column
      if (pred.provenance != ResultProvenance::kFull) continue;  // degraded
      pred.provenance = ResultProvenance::kDegradedMetadataOnly;
      if (threshold > 0.0) {
        pred.admitted_types.clear();
        for (size_t s = 0; s < pred.probabilities.size(); ++s) {
          if (pred.probabilities[s] >= threshold) {
            pred.admitted_types.push_back(static_cast<int>(s));
          }
        }
      }
      ++job->result.degraded_columns;
      ++degraded;
    }
    result_offset += job->chunks[i].num_columns;
  }
  return degraded;
}

Result<TableDetectionResult> TasteDetector::DetectTable(
    clouddb::Connection* conn, const std::string& table_name,
    tensor::ExecContext* ctx, const CancelToken* cancel) const {
  Job job;
  job.cancel = cancel;
  TASTE_RETURN_IF_ERROR(PrepareP1(conn, table_name, &job));
  TASTE_RETURN_IF_ERROR(InferP1(&job, ctx));
  if (job.needs_p2) {
    // Once P1 has classified every column, an expired budget degrades the
    // still-uncertain columns to the metadata-only path instead of failing
    // the table — the sequential-mode mirror of the pipeline's routing.
    auto expired_after_p1 = [&] {
      return CancelledNow(cancel) && P1Complete(job);
    };
    if (expired_after_p1()) {
      DegradeRemainingToMetadataOnly(&job);
      return job.result;
    }
    Status s = PrepareP2(conn, &job);
    if (!s.ok()) {
      if (expired_after_p1()) {
        DegradeRemainingToMetadataOnly(&job);
        return job.result;
      }
      return s;
    }
    s = InferP2(&job, ctx);
    if (!s.ok()) {
      if (expired_after_p1()) {
        DegradeRemainingToMetadataOnly(&job);
        return job.result;
      }
      return s;
    }
  }
  return job.result;
}

}  // namespace taste::core
