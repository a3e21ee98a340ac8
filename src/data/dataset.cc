#include "data/dataset.h"

#include <algorithm>
#include <unordered_set>

namespace taste::data {

int Dataset::NumColumns() const {
  int n = 0;
  for (const auto& t : tables) n += static_cast<int>(t.columns.size());
  return n;
}

double Dataset::NullColumnRatio(const SemanticTypeRegistry& registry) const {
  int total = 0, nulls = 0;
  for (const auto& t : tables) {
    for (const auto& c : t.columns) {
      ++total;
      if (c.labels.size() == 1 && c.labels[0] == registry.null_type_id()) {
        ++nulls;
      }
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(nulls) / total;
}

std::vector<const TableSpec*> Dataset::Select(
    const std::vector<int>& idx) const {
  std::vector<const TableSpec*> out;
  out.reserve(idx.size());
  for (int i : idx) {
    TASTE_CHECK(i >= 0 && i < static_cast<int>(tables.size()));
    out.push_back(&tables[static_cast<size_t>(i)]);
  }
  return out;
}

DatasetProfile DatasetProfile::WikiLike(int num_tables) {
  DatasetProfile p;
  p.name = "WikiLike";
  p.num_tables = num_tables;
  p.p_informative_name = 0.55;
  p.p_ambiguous_name = 0.35;
  p.p_column_comment = 0.30;
  p.p_table_comment = 0.5;
  p.null_type_ratio = 0.0;
  p.seed = 0x57494b49;  // "WIKI"
  return p;
}

DatasetProfile DatasetProfile::GitLike(int num_tables) {
  DatasetProfile p;
  p.name = "GitLike";
  p.num_tables = num_tables;
  p.p_informative_name = 0.96;
  p.p_ambiguous_name = 0.025;
  p.p_column_comment = 0.45;
  p.p_table_comment = 0.6;
  p.null_type_ratio = 0.3156;  // paper Table 2: 31.56% columns w/o types
  p.seed = 0x47495454;         // "GITT"
  return p;
}

std::vector<int> SelectRetainedTypes(const SemanticTypeRegistry& registry,
                                     int k, uint64_t seed) {
  std::vector<int> all;
  for (int id = 0; id < registry.size(); ++id) {
    if (id != registry.null_type_id()) all.push_back(id);
  }
  TASTE_CHECK(k >= 0 && k <= static_cast<int>(all.size()));
  Rng rng(seed);
  rng.Shuffle(all);
  all.resize(static_cast<size_t>(k));
  std::sort(all.begin(), all.end());
  return all;
}

Dataset ApplyRetainedTypes(const Dataset& dataset,
                           const std::vector<int>& retained,
                           const SemanticTypeRegistry& registry) {
  std::unordered_set<int> keep(retained.begin(), retained.end());
  Dataset out = dataset;
  for (auto& t : out.tables) {
    for (auto& c : t.columns) {
      std::vector<int> labels;
      for (int l : c.labels) {
        if (keep.count(l) != 0) labels.push_back(l);
      }
      if (labels.empty()) labels.push_back(registry.null_type_id());
      c.labels = std::move(labels);
    }
  }
  return out;
}

TypeRemap TypeRemap::ForRetained(const std::vector<int>& retained,
                                 const SemanticTypeRegistry& registry) {
  TypeRemap remap;
  remap.global_to_local_.assign(static_cast<size_t>(registry.size()), -1);
  std::vector<int> globals = retained;
  // type:null is always representable.
  if (std::find(globals.begin(), globals.end(), registry.null_type_id()) ==
      globals.end()) {
    globals.push_back(registry.null_type_id());
  }
  std::sort(globals.begin(), globals.end());
  globals.erase(std::unique(globals.begin(), globals.end()), globals.end());
  for (int g : globals) {
    TASTE_CHECK(g >= 0 && g < registry.size());
    remap.global_to_local_[static_cast<size_t>(g)] =
        static_cast<int>(remap.local_to_global_.size());
    remap.local_to_global_.push_back(g);
  }
  return remap;
}

int TypeRemap::ToLocal(int global_id) const {
  TASTE_CHECK(global_id >= 0 &&
              global_id < static_cast<int>(global_to_local_.size()));
  return global_to_local_[static_cast<size_t>(global_id)];
}

int TypeRemap::ToGlobal(int local_id) const {
  TASTE_CHECK(local_id >= 0 &&
              local_id < static_cast<int>(local_to_global_.size()));
  return local_to_global_[static_cast<size_t>(local_id)];
}

void TypeRemap::Extend(const std::vector<int>& new_globals) {
  for (int g : new_globals) {
    TASTE_CHECK(g >= 0 && g < static_cast<int>(global_to_local_.size()));
    TASTE_CHECK_MSG(global_to_local_[static_cast<size_t>(g)] == -1,
                    "type already mapped");
    global_to_local_[static_cast<size_t>(g)] =
        static_cast<int>(local_to_global_.size());
    local_to_global_.push_back(g);
  }
}

Dataset RemapLabels(const Dataset& dataset, const TypeRemap& remap,
                    const SemanticTypeRegistry& registry) {
  int local_null = remap.ToLocal(registry.null_type_id());
  TASTE_CHECK(local_null >= 0);
  Dataset out = dataset;
  for (auto& t : out.tables) {
    for (auto& c : t.columns) {
      std::vector<int> labels;
      for (int l : c.labels) {
        int local = remap.ToLocal(l);
        if (local >= 0 && local != local_null) labels.push_back(local);
      }
      if (labels.empty()) labels.push_back(local_null);
      c.labels = std::move(labels);
    }
  }
  return out;
}

std::string TableDocument(const TableSpec& table) {
  std::string doc = table.name + " " + table.comment;
  for (const auto& c : table.columns) {
    doc += " " + c.name + " " + c.comment + " " + c.sql_type;
    // A handful of cell values per column suffices for subword coverage.
    size_t limit = std::min<size_t>(c.values.size(), 8);
    for (size_t v = 0; v < limit; ++v) doc += " " + c.values[v];
  }
  return doc;
}

std::vector<std::string> BuildCorpusDocuments(const Dataset& dataset,
                                              size_t max_tables) {
  size_t n = dataset.tables.size();
  if (max_tables > 0) n = std::min(n, max_tables);
  std::vector<std::string> docs;
  docs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    docs.push_back(TableDocument(dataset.tables[i]));
  }
  return docs;
}

}  // namespace taste::data
