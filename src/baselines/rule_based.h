// Non-learning baselines from the paper's related-work discussion
// (Sec. 7): regular-expression matching and dictionary lookup. Both must
// scan column content to function and only cover a subset of types — the
// shortcomings the DL approaches were introduced to fix.

#ifndef TASTE_BASELINES_RULE_BASED_H_
#define TASTE_BASELINES_RULE_BASED_H_

#include <regex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "clouddb/database.h"
#include "core/detection_result.h"
#include "data/dataset.h"

namespace taste::baselines {

/// Options shared by the rule-based detectors.
struct RuleBasedOptions {
  /// A type is admitted when at least this fraction of the sampled
  /// non-empty values matches.
  double match_threshold = 0.7;
};

/// Hand-written regular expressions for the pattern-friendly subset of the
/// built-in semantic types (email, phone, credit card, SSN, IP, UUID, ...).
class RegexDetector {
 public:
  RegexDetector(const data::SemanticTypeRegistry* registry,
                RuleBasedOptions options = {});

  Result<core::TableDetectionResult> DetectTable(
      clouddb::Connection* conn, const std::string& table_name) const;

  /// Type ids that have a pattern; everything else is undetectable.
  std::vector<int> covered_types() const;

 private:
  const data::SemanticTypeRegistry* registry_;
  RuleBasedOptions options_;
  std::vector<std::pair<int, std::regex>> patterns_;
};

/// Value-overlap baseline: builds per-type value dictionaries from labeled
/// training tables, then admits the type whose dictionary covers the most
/// scanned values (above the threshold).
class DictionaryDetector {
 public:
  DictionaryDetector(const data::SemanticTypeRegistry* registry,
                     RuleBasedOptions options = {});

  /// Collects value dictionaries from the given training tables.
  void Fit(const data::Dataset& dataset,
           const std::vector<int>& table_indices);

  Result<core::TableDetectionResult> DetectTable(
      clouddb::Connection* conn, const std::string& table_name) const;

  size_t dictionary_size() const;

 private:
  const data::SemanticTypeRegistry* registry_;
  RuleBasedOptions options_;
  std::unordered_map<std::string, std::unordered_set<int>> value_to_types_;
};

}  // namespace taste::baselines

#endif  // TASTE_BASELINES_RULE_BASED_H_
