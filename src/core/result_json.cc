#include "core/result_json.h"

#include "common/string_util.h"

namespace taste::core {

namespace {

/// Appends indentation when pretty-printing.
void Indent(std::string* out, const JsonOptions& o, int depth) {
  if (!o.pretty) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(depth) * 2, ' ');
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string ResultToJson(const TableDetectionResult& result,
                         const data::SemanticTypeRegistry& registry,
                         const JsonOptions& options) {
  std::string out = "{";
  Indent(&out, options, 1);
  out += "\"table\": \"" + JsonEscape(result.table_name) + "\",";
  Indent(&out, options, 1);
  out += StrFormat("\"columns_scanned\": %d,", result.columns_scanned);
  Indent(&out, options, 1);
  out += StrFormat("\"total_columns\": %d,", result.total_columns);
  // Resilience block: only present when the serving path actually degraded
  // or retried, so fault-free output is unchanged.
  if (result.degraded_columns > 0 || result.failed_columns > 0 ||
      result.retries > 0 || result.breaker_short_circuits > 0) {
    Indent(&out, options, 1);
    out += StrFormat(
        "\"resilience\": {\"degraded_columns\": %d, \"failed_columns\": %d, "
        "\"retries\": %d, \"deadline_misses\": %d, "
        "\"breaker_short_circuits\": %d},",
        result.degraded_columns, result.failed_columns, result.retries,
        result.deadline_misses, result.breaker_short_circuits);
  }
  Indent(&out, options, 1);
  out += "\"columns\": [";
  for (size_t i = 0; i < result.columns.size(); ++i) {
    const ColumnPrediction& col = result.columns[i];
    if (i > 0) out += ",";
    Indent(&out, options, 2);
    out += "{";
    Indent(&out, options, 3);
    out += "\"name\": \"" + JsonEscape(col.column_name) + "\",";
    Indent(&out, options, 3);
    out += StrFormat("\"ordinal\": %d,", col.ordinal);
    Indent(&out, options, 3);
    out += std::string("\"phase\": \"") + (col.went_to_p2 ? "P2" : "P1") +
           "\",";
    if (col.provenance != ResultProvenance::kFull) {
      Indent(&out, options, 3);
      out += std::string("\"provenance\": \"") + ProvenanceName(col.provenance) +
             "\",";
    }
    Indent(&out, options, 3);
    out += "\"admitted_types\": [";
    for (size_t t = 0; t < col.admitted_types.size(); ++t) {
      if (t > 0) out += ", ";
      out += '"';
      out += JsonEscape(registry.info(col.admitted_types[t]).name);
      out += '"';
    }
    out += "]";
    // High-probability candidates that were not admitted.
    std::string candidates;
    for (size_t t = 0; t < col.probabilities.size(); ++t) {
      if (col.probabilities[t] < options.candidate_threshold) continue;
      bool admitted = false;
      for (int a : col.admitted_types) {
        admitted = admitted || a == static_cast<int>(t);
      }
      if (admitted) continue;
      if (!candidates.empty()) candidates += ", ";
      candidates += StrFormat(
          "{\"type\": \"%s\", \"p\": %.3f}",
          JsonEscape(registry.info(static_cast<int>(t)).name).c_str(),
          col.probabilities[t]);
    }
    if (!candidates.empty()) {
      out += ",";
      Indent(&out, options, 3);
      out += "\"candidates\": [" + candidates + "]";
    }
    if (options.include_probabilities) {
      out += ",";
      Indent(&out, options, 3);
      out += "\"probabilities\": [";
      for (size_t t = 0; t < col.probabilities.size(); ++t) {
        if (t > 0) out += ", ";
        out += StrFormat("%.4f", col.probabilities[t]);
      }
      out += "]";
    }
    Indent(&out, options, 2);
    out += "}";
  }
  Indent(&out, options, 1);
  out += "]";
  Indent(&out, options, 0);
  out += "}";
  return out;
}

std::string ResultsToJson(const std::vector<TableDetectionResult>& results,
                          const data::SemanticTypeRegistry& registry,
                          const JsonOptions& options) {
  std::string out = "[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) out += ",";
    if (options.pretty) out += "\n";
    out += ResultToJson(results[i], registry, options);
  }
  if (options.pretty && !results.empty()) out += "\n";
  out += "]";
  return out;
}

}  // namespace taste::core
