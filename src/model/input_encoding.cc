#include "model/input_encoding.h"

#include <algorithm>

namespace taste::model {

namespace {

constexpr float kMaskBlocked = -1e9f;

/// Appends `text` encoded to exactly `len` ids ([PAD]-padded / truncated).
void AppendFixed(const text::WordPieceTokenizer& tok, const std::string& text,
                 int len, std::vector<int>* out) {
  std::vector<int> ids = tok.EncodeFixed(text, len);
  out->insert(out->end(), ids.begin(), ids.end());
}

}  // namespace

std::vector<clouddb::TableMetadata> SplitWideTable(
    const clouddb::TableMetadata& meta, int l) {
  TASTE_CHECK(l >= 1);
  std::vector<clouddb::TableMetadata> chunks;
  size_t n = meta.columns.size();
  for (size_t begin = 0; begin < n || chunks.empty(); begin += l) {
    clouddb::TableMetadata chunk;
    chunk.table_name = meta.table_name;
    chunk.comment = meta.comment;
    chunk.num_rows = meta.num_rows;
    size_t end = std::min(n, begin + static_cast<size_t>(l));
    chunk.columns.assign(meta.columns.begin() + begin,
                         meta.columns.begin() + end);
    chunks.push_back(std::move(chunk));
    if (n == 0) break;
  }
  return chunks;
}

InputEncoder::InputEncoder(const text::WordPieceTokenizer* tokenizer,
                           InputConfig config)
    : tokenizer_(tokenizer), config_(config) {
  TASTE_CHECK(tokenizer_ != nullptr);
  TASTE_CHECK(config_.table_tokens >= 2);
  TASTE_CHECK(config_.col_meta_tokens >= 1);
  TASTE_CHECK(config_.cell_tokens >= 1);
  TASTE_CHECK(config_.cells_per_column >= 1);
}

EncodedMetadata InputEncoder::EncodeMetadata(
    const clouddb::TableMetadata& meta) const {
  EncodedMetadata out;
  out.table_name = meta.table_name;
  out.num_columns = static_cast<int>(meta.columns.size());

  // Table segment: [CLS] + name/comment text.
  out.token_ids.push_back(text::Vocab::kClsId);
  AppendFixed(*tokenizer_, meta.table_name + " " + meta.comment,
              config_.table_tokens - 1, &out.token_ids);

  // Column segments.
  std::vector<float> feat_data;
  feat_data.reserve(meta.columns.size() * NonTextualFeatures::kDim);
  for (const auto& col : meta.columns) {
    out.column_anchors.push_back(static_cast<int>(out.token_ids.size()));
    out.column_ordinals.push_back(col.ordinal);
    out.column_names.push_back(col.column_name);
    out.token_ids.push_back(text::Vocab::kClsId);
    AppendFixed(*tokenizer_,
                col.column_name + " " + col.comment + " " + col.data_type,
                config_.col_meta_tokens, &out.token_ids);
    NonTextualFeatures f =
        ComputeFeatures(col, meta.num_rows, config_.use_histograms);
    feat_data.insert(feat_data.end(), f.values.begin(), f.values.end());
  }
  out.features = tensor::Tensor::FromVector(
      {static_cast<int64_t>(meta.columns.size()), NonTextualFeatures::kDim},
      std::move(feat_data));

  // Self-attention mask: block PAD keys for every query.
  int64_t sm = static_cast<int64_t>(out.token_ids.size());
  std::vector<float> mask(static_cast<size_t>(sm * sm), 0.0f);
  for (int64_t k = 0; k < sm; ++k) {
    if (out.token_ids[static_cast<size_t>(k)] == text::Vocab::kPadId) {
      for (int64_t q = 0; q < sm; ++q) {
        mask[static_cast<size_t>(q * sm + k)] = kMaskBlocked;
      }
    }
  }
  out.attention_mask = tensor::Tensor::FromVector({sm, sm}, std::move(mask));
  return out;
}

EncodedContent InputEncoder::EncodeContent(
    const EncodedMetadata& meta,
    const std::map<int, std::vector<std::string>>& column_values) const {
  EncodedContent out;
  for (const auto& [col_idx, values] : column_values) {
    TASTE_CHECK(col_idx >= 0 && col_idx < meta.num_columns);
    out.scanned.push_back(col_idx);
    out.column_anchors.push_back(static_cast<int>(out.token_ids.size()));
    out.token_ids.push_back(text::Vocab::kClsId);
    // First n non-empty cells (paper Sec. 6.1.2).
    int taken = 0;
    for (const auto& v : values) {
      if (v.empty()) continue;
      if (taken >= config_.cells_per_column) break;
      AppendFixed(*tokenizer_, v, config_.cell_tokens, &out.token_ids);
      ++taken;
    }
    // Pad the column's content segment to the fixed segment length (taken
    // may be < n when the column is sparse); the attention relies on it.
    int missing = (config_.cells_per_column - taken) * config_.cell_tokens;
    out.token_ids.insert(out.token_ids.end(), missing, text::Vocab::kPadId);
  }

  const int64_t seg = config_.segment_len();
  const int64_t sc = static_cast<int64_t>(out.token_ids.size());
  const int64_t sm = static_cast<int64_t>(meta.token_ids.size());
  const int64_t width = sm + seg;
  TASTE_CHECK(sc == static_cast<int64_t>(out.scanned.size()) * seg);
  std::vector<float> mask(static_cast<size_t>(sc * width), 0.0f);
  for (int64_t q = 0; q < sc; ++q) {
    float* row = mask.data() + q * width;
    // Metadata keys: all non-PAD positions are attendable.
    for (int64_t k = 0; k < sm; ++k) {
      if (meta.token_ids[static_cast<size_t>(k)] == text::Vocab::kPadId) {
        row[k] = kMaskBlocked;
      }
    }
    // Own-segment keys: non-PAD only.
    const int64_t seg_begin = q - q % seg;
    for (int64_t k = 0; k < seg; ++k) {
      if (out.token_ids[static_cast<size_t>(seg_begin + k)] ==
          text::Vocab::kPadId) {
        row[sm + k] = kMaskBlocked;
      }
    }
  }
  out.cross_mask = tensor::Tensor::FromVector({sc, width}, std::move(mask));
  return out;
}

}  // namespace taste::model
