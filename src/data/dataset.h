// Dataset structures: synthetic tables with ground-truth multi-label
// semantic type annotations, dataset profiles mirroring WikiTable and
// GitTables-100K, and the retained-type-set transformation used by the
// paper's Fig. 6 experiment.

#ifndef TASTE_DATA_DATASET_H_
#define TASTE_DATA_DATASET_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "data/semantic_types.h"

namespace taste::data {

/// One generated column: schema-level metadata, content, and ground truth.
/// Detection code must never read `labels`; they are consumed only by the
/// evaluation harness. Content is reachable by detectors only through the
/// simulated database's scan API.
struct ColumnSpec {
  std::string name;
  std::string comment;        // empty when the tenant wrote none
  std::string sql_type;
  bool nullable = true;
  std::vector<std::string> values;  // one string per row
  std::vector<int> labels;          // ground-truth type ids (>= 1 entry)
};

/// One generated table.
struct TableSpec {
  std::string name;
  std::string comment;  // empty when the tenant wrote none
  std::vector<ColumnSpec> columns;
  int num_rows = 0;
};

/// A corpus of tables with train/validation/test splits (table indices).
struct Dataset {
  std::string name;
  std::vector<TableSpec> tables;
  std::vector<int> train;
  std::vector<int> valid;
  std::vector<int> test;

  int NumColumns() const;
  /// Fraction of columns (across all tables) labeled only type:null.
  double NullColumnRatio(const SemanticTypeRegistry& registry) const;
  /// Tables selected by a split index list.
  std::vector<const TableSpec*> Select(const std::vector<int>& idx) const;
};

/// Knobs controlling synthesis; the two factory profiles are calibrated so
/// that the *shape* of the paper's per-dataset results carries over (see
/// DESIGN.md §1).
struct DatasetProfile {
  std::string name = "custom";
  int num_tables = 400;
  int min_columns = 2;
  int max_columns = 8;
  int min_rows = 30;
  int max_rows = 120;
  /// Column-name informativeness distribution. Remaining probability mass
  /// goes to uninformative names ("col3").
  double p_informative_name = 0.55;
  double p_ambiguous_name = 0.35;
  /// Probability that a column / table carries a human-style comment.
  double p_column_comment = 0.35;
  double p_table_comment = 0.5;
  /// Fraction of columns with no semantic type (labeled type:null).
  double null_type_ratio = 0.0;
  /// Probability that a typed column carries one extra related label.
  double p_secondary_label = 0.04;
  uint64_t seed = 0;

  /// WikiTable-like: every column typed; metadata only moderately
  /// informative, so P1 stays uncertain for a large minority of columns
  /// (the paper scans 45.0% on WikiTable).
  static DatasetProfile WikiLike(int num_tables = 400);
  /// GitTables-like: ~32% background columns; highly informative names, so
  /// P1 almost always decides alone (the paper scans 1.7% on GitTables).
  static DatasetProfile GitLike(int num_tables = 400);
};

/// Selects `k` concrete (non-null) type ids uniformly at random — the
/// retained type set S_k of the paper's Sec. 6.6.
std::vector<int> SelectRetainedTypes(const SemanticTypeRegistry& registry,
                                     int k, uint64_t seed);

/// Rewrites labels to the retained set: labels outside `retained` are
/// dropped; columns left with no label get type:null. Metadata and content
/// are untouched. Mirrors the WikiTable-S_k construction of Sec. 6.6.
Dataset ApplyRetainedTypes(const Dataset& dataset,
                           const std::vector<int>& retained,
                           const SemanticTypeRegistry& registry);

/// The text of one table for tokenizer training and MLM pre-training: its
/// name and comment, then each column's name, comment, SQL type and first
/// few cell values, space-separated.
std::string TableDocument(const TableSpec& table);

/// TableDocument of each of the first `max_tables` tables (all when 0).
std::vector<std::string> BuildCorpusDocuments(const Dataset& dataset,
                                              size_t max_tables = 0);

/// A bijection between the global type-id space of the registry and a
/// compact local space used by a model trained on a subset of S. This is
/// the bookkeeping behind domain-set evolution (paper Sec. 8: "extend the
/// solution to accommodate new semantic types"): a deployed model's output
/// layer covers only the local space; when tenants register new types the
/// map grows and the classifier is extended (model::ExtendAdtdModel).
class TypeRemap {
 public:
  /// Local space = `retained` global ids (sorted) + type:null (always
  /// mapped, since "no type" must stay expressible).
  static TypeRemap ForRetained(const std::vector<int>& retained,
                               const SemanticTypeRegistry& registry);

  /// Local id for a global id, or -1 when unmapped.
  int ToLocal(int global_id) const;
  /// Global id for a local id (must be in range).
  int ToGlobal(int local_id) const;
  int num_local_types() const {
    return static_cast<int>(local_to_global_.size());
  }
  /// True if the global id is representable locally.
  bool Covers(int global_id) const { return ToLocal(global_id) >= 0; }

  /// Grows the local space by appending `new_globals` (must be unmapped).
  /// Existing local ids are unchanged — the property that lets a model be
  /// extended in place.
  void Extend(const std::vector<int>& new_globals);

 private:
  std::vector<int> global_to_local_;  // -1 = unmapped
  std::vector<int> local_to_global_;
};

/// Rewrites a dataset's labels into a remap's local space. Labels outside
/// the map become type:null (the column's type is "unknown to this
/// model"), mirroring ApplyRetainedTypes but in local ids.
Dataset RemapLabels(const Dataset& dataset, const TypeRemap& remap,
                    const SemanticTypeRegistry& registry);

}  // namespace taste::data

#endif  // TASTE_DATA_DATASET_H_
