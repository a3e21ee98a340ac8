// Common result types shared by TASTE and the baseline detectors.

#ifndef TASTE_CORE_DETECTION_RESULT_H_
#define TASTE_CORE_DETECTION_RESULT_H_

#include <string>
#include <vector>

namespace taste::core {

/// How a column's prediction was obtained when the serving path can
/// degrade (see TasteOptions::resilience).
enum class ResultProvenance {
  kFull = 0,                // the normal P1 (or P1+P2) path ran to completion
  kDegradedMetadataOnly,    // P2 scan failed permanently; P1-only prediction
  kFailed,                  // no usable prediction could be produced
};

inline const char* ProvenanceName(ResultProvenance p) {
  switch (p) {
    case ResultProvenance::kFull:
      return "full";
    case ResultProvenance::kDegradedMetadataOnly:
      return "degraded_metadata_only";
    case ResultProvenance::kFailed:
      return "failed";
  }
  return "unknown";
}

/// Final decision for one column: the admitted type set A^c plus the
/// probabilities the decision was based on (from whichever phase decided).
struct ColumnPrediction {
  std::string column_name;
  int ordinal = 0;
  std::vector<int> admitted_types;   // may be empty (no semantic type)
  std::vector<float> probabilities;  // |S| sigmoid outputs
  bool went_to_p2 = false;           // true if content was scanned for it
  ResultProvenance provenance = ResultProvenance::kFull;
};

/// Per-table detection outcome with local cost accounting.
struct TableDetectionResult {
  std::string table_name;
  std::vector<ColumnPrediction> columns;  // ordinal order
  int columns_scanned = 0;   // columns whose content was fetched
  int total_columns = 0;
  // Resilience accounting (all zero on the fault-free path).
  int degraded_columns = 0;  // provenance == kDegradedMetadataOnly
  int failed_columns = 0;    // provenance == kFailed
  int retries = 0;           // database-call retries spent on this table
  int deadline_misses = 0;   // retry loops stopped by a fired cancel token
  int breaker_short_circuits = 0;  // calls rejected by an open breaker
};

}  // namespace taste::core

#endif  // TASTE_CORE_DETECTION_RESULT_H_
