// Serialization of table metadata and column content into the token
// sequences, anchors, masks and feature tensors the ADTD model consumes.
//
// Metadata sequence layout (paper Sec. 4.2.1: 150 table tokens, 10 per
// column; scaled by InputConfig):
//
//   [CLS] <table name/comment tokens ... padded to table_tokens-1>
//   then per column: [CLS] <column name/comment/type tokens ... padded>
//
// The leading [CLS] of each column segment is that column's *anchor*: the
// latent at the anchor position is the column representation fed to the
// classifiers.
//
// Content sequence layout: per scanned column, [CLS] followed by the first
// n non-empty cell values, each encoded to cell_tokens ids (paper
// Sec. 6.1.2: first n non-empty of the m retrieved rows), padded to the
// fixed segment length InputConfig::segment_len().
//
// Attention structure (paper Sec. 6.4): a content token attends to ALL
// metadata tokens (table-level and every column's) and to the content
// tokens of its own column; PAD positions are never attended. The content
// tower computes exactly that and nothing more: column j's segment attends
// over [metadata ; segment j] (nn::TransformerBlock::ForwardSegmented), so
// the cross mask has sm + segment_len() columns — metadata keys first,
// then the segment's own keys. Every query of a segment sees the same
// keys, so the mask holds one row per segment, and the metadata mask one
// row in all; the attention adds that row to each of the span's queries.

#ifndef TASTE_MODEL_INPUT_ENCODING_H_
#define TASTE_MODEL_INPUT_ENCODING_H_

#include <map>
#include <vector>

#include "clouddb/database.h"
#include "model/features.h"
#include "tensor/tensor.h"
#include "text/wordpiece.h"

namespace taste::model {

/// Sequence-budget knobs (the paper's values are table=150, col=10,
/// cell=10, n=10, l=20; bench defaults are scaled for one CPU core).
struct InputConfig {
  int table_tokens = 12;          // table-segment length incl. leading [CLS]
  int col_meta_tokens = 8;        // per-column metadata tokens (after anchor)
  int cell_tokens = 3;            // tokens per cell value
  int cells_per_column = 10;      // n: non-empty cells used per column
  int column_split_threshold = 20;  // l: max columns per encoded chunk
  bool use_histograms = false;    // include histogram features in M_n

  /// Length of one scanned column's content segment: its [CLS] anchor plus
  /// n cells of cell_tokens ids each. Every segment is padded to it.
  int segment_len() const { return 1 + cells_per_column * cell_tokens; }

  /// The paper's configuration.
  static InputConfig Paper() {
    return {.table_tokens = 150,
            .col_meta_tokens = 10,
            .cell_tokens = 10,
            .cells_per_column = 10,
            .column_split_threshold = 20,
            .use_histograms = false};
  }
};

/// Encoded metadata of one table chunk (input to the metadata tower).
struct EncodedMetadata {
  std::string table_name;            // for cache keying
  std::vector<int> token_ids;        // length sm
  std::vector<int> column_anchors;   // position of each column's [CLS]
  std::vector<int> column_ordinals;  // original ordinal of each column
  std::vector<std::string> column_names;  // aligned with anchors
  tensor::Tensor features;           // (ncols, NonTextualFeatures::kDim)
  tensor::Tensor attention_mask;     // (1, sm), blocks PAD keys
  int num_columns = 0;
};

/// Encoded content of the scanned columns of one chunk (input to the
/// content tower). `scanned` holds chunk-local column indices.
struct EncodedContent {
  std::vector<int> token_ids;        // length sc
  std::vector<int> scanned;          // chunk-local column indices, ascending
  std::vector<int> column_anchors;   // anchor position per scanned column
  /// (segments, sm + segment_len) additive mask: row j covers the
  /// metadata keys then the keys of segment j, for every query row of
  /// segment j; PAD keys are blocked.
  tensor::Tensor cross_mask;
};

/// Splits a wide table's metadata into chunks of at most `l` columns
/// (paper Sec. 6.1.2). Table-level fields are replicated into every chunk.
std::vector<clouddb::TableMetadata> SplitWideTable(
    const clouddb::TableMetadata& meta, int l);

/// Stateless encoder from database metadata/content to model inputs.
class InputEncoder {
 public:
  InputEncoder(const text::WordPieceTokenizer* tokenizer, InputConfig config);

  /// Encodes one (already split) table's metadata.
  EncodedMetadata EncodeMetadata(const clouddb::TableMetadata& meta) const;

  /// Encodes scanned content. `column_values` maps chunk-local column index
  /// -> raw scanned values (the m rows); the encoder keeps the first n
  /// non-empty. Builds the column-segmented cross mask against `meta`.
  EncodedContent EncodeContent(
      const EncodedMetadata& meta,
      const std::map<int, std::vector<std::string>>& column_values) const;

  const InputConfig& config() const { return config_; }

 private:
  const text::WordPieceTokenizer* tokenizer_;
  InputConfig config_;
};

}  // namespace taste::model

#endif  // TASTE_MODEL_INPUT_ENCODING_H_
