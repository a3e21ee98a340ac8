#include "baselines/rule_based.h"

#include <map>

namespace taste::baselines {

namespace {

/// (type name, ECMAScript pattern). Patterns cover types whose values obey
/// a rigid syntax; open-vocabulary types (names, cities, descriptions)
/// deliberately have none.
const std::vector<std::pair<const char*, const char*>>& TypePatterns() {
  static const auto* kPatterns =
      new std::vector<std::pair<const char*, const char*>>{
          {"email", R"([\w.]+@[\w.]+\.\w+)"},
          {"url", R"(https?://[\w./-]+)"},
          {"ip_address", R"(\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3})"},
          {"mac_address", R"([0-9a-f]{2}(:[0-9a-f]{2}){5})"},
          {"uuid",
           R"([0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12})"},
          {"phone_number", R"((\+\d{1,2}-\d{3}-\d{7})|(\(\d{3}\) \d{3}-\d{4}))"},
          {"credit_card", R"(\d{4} \d{4} \d{4} \d{4})"},
          {"ssn", R"(\d{3}-\d{2}-\d{4})"},
          {"zip_code", R"(\d{5})"},
          {"account_number", R"(\d{10})"},
          {"date", R"(\d{4}-\d{2}-\d{2})"},
          {"datetime", R"(\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2})"},
          {"time", R"(\d{2}:\d{2})"},
          {"order_id", R"(ORD-\d{6})"},
          {"product_sku", R"(SKU-[A-Z]{3}\d{4})"},
          {"invoice_number", R"(INV-\d{4}-\d{4})"},
          {"currency_code", R"([A-Z]{3})"},
          {"country_code", R"([A-Z]{2})"},
      };
  return *kPatterns;
}

}  // namespace

RegexDetector::RegexDetector(const data::SemanticTypeRegistry* registry,
                             RuleBasedOptions options)
    : registry_(registry), options_(options) {
  TASTE_CHECK(registry_ != nullptr);
  for (const auto& [name, pattern] : TypePatterns()) {
    auto id = registry_->IdByName(name);
    TASTE_CHECK_MSG(id.ok(), std::string("regex for unknown type ") + name);
    patterns_.emplace_back(*id, std::regex(pattern));
  }
}

std::vector<int> RegexDetector::covered_types() const {
  std::vector<int> out;
  for (const auto& [id, re] : patterns_) out.push_back(id);
  return out;
}

Result<core::TableDetectionResult> RegexDetector::DetectTable(
    clouddb::Connection* conn, const std::string& table_name) const {
  TASTE_CHECK(conn != nullptr);
  TASTE_ASSIGN_OR_RETURN(clouddb::TableMetadata meta,
                         conn->GetTableMetadata(table_name));
  core::TableDetectionResult result;
  result.table_name = table_name;
  std::vector<std::string> names;
  for (const auto& c : meta.columns) names.push_back(c.column_name);
  TASTE_ASSIGN_OR_RETURN(
      auto values,
      conn->ScanColumns(table_name, names, clouddb::ScanOptions{}));
  result.columns_scanned = static_cast<int>(names.size());
  result.total_columns = static_cast<int>(names.size());
  for (size_t c = 0; c < names.size(); ++c) {
    core::ColumnPrediction pred;
    pred.column_name = names[c];
    pred.ordinal = meta.columns[c].ordinal;
    pred.went_to_p2 = true;
    int non_empty = 0;
    std::vector<int> match_counts(patterns_.size(), 0);
    for (const auto& v : values[c]) {
      if (v.empty()) continue;
      ++non_empty;
      for (size_t p = 0; p < patterns_.size(); ++p) {
        if (std::regex_match(v, patterns_[p].second)) {
          ++match_counts[p];
        }
      }
    }
    if (non_empty > 0) {
      for (size_t p = 0; p < patterns_.size(); ++p) {
        double ratio =
            static_cast<double>(match_counts[p]) / static_cast<double>(non_empty);
        if (ratio >= options_.match_threshold) {
          pred.admitted_types.push_back(patterns_[p].first);
        }
      }
    }
    result.columns.push_back(std::move(pred));
  }
  return result;
}

DictionaryDetector::DictionaryDetector(
    const data::SemanticTypeRegistry* registry, RuleBasedOptions options)
    : registry_(registry), options_(options) {
  TASTE_CHECK(registry_ != nullptr);
}

void DictionaryDetector::Fit(const data::Dataset& dataset,
                             const std::vector<int>& table_indices) {
  for (int idx : table_indices) {
    const data::TableSpec& t = dataset.tables[static_cast<size_t>(idx)];
    for (const auto& col : t.columns) {
      for (int label : col.labels) {
        if (label == registry_->null_type_id()) continue;
        for (const auto& v : col.values) {
          if (!v.empty()) value_to_types_[v].insert(label);
        }
      }
    }
  }
}

size_t DictionaryDetector::dictionary_size() const {
  return value_to_types_.size();
}

Result<core::TableDetectionResult> DictionaryDetector::DetectTable(
    clouddb::Connection* conn, const std::string& table_name) const {
  TASTE_CHECK(conn != nullptr);
  TASTE_ASSIGN_OR_RETURN(clouddb::TableMetadata meta,
                         conn->GetTableMetadata(table_name));
  core::TableDetectionResult result;
  result.table_name = table_name;
  std::vector<std::string> names;
  for (const auto& c : meta.columns) names.push_back(c.column_name);
  TASTE_ASSIGN_OR_RETURN(
      auto values,
      conn->ScanColumns(table_name, names, clouddb::ScanOptions{}));
  result.columns_scanned = static_cast<int>(names.size());
  result.total_columns = static_cast<int>(names.size());
  for (size_t c = 0; c < names.size(); ++c) {
    core::ColumnPrediction pred;
    pred.column_name = names[c];
    pred.ordinal = meta.columns[c].ordinal;
    pred.went_to_p2 = true;
    int non_empty = 0;
    std::map<int, int> type_hits;
    for (const auto& v : values[c]) {
      if (v.empty()) continue;
      ++non_empty;
      auto it = value_to_types_.find(v);
      if (it == value_to_types_.end()) continue;
      for (int type : it->second) ++type_hits[type];
    }
    if (non_empty > 0) {
      for (const auto& [type, hits] : type_hits) {
        if (static_cast<double>(hits) / non_empty >=
            options_.match_threshold) {
          pred.admitted_types.push_back(type);
        }
      }
    }
    result.columns.push_back(std::move(pred));
  }
  return result;
}

}  // namespace taste::baselines
