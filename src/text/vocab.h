// Token vocabulary with the BERT special-token convention.

#ifndef TASTE_TEXT_VOCAB_H_
#define TASTE_TEXT_VOCAB_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace taste::text {

/// Bidirectional token <-> id mapping. Ids are dense, starting at 0 with
/// the five special tokens below always present in this order.
class Vocab {
 public:
  static constexpr int kPadId = 0;
  static constexpr int kUnkId = 1;
  static constexpr int kClsId = 2;
  static constexpr int kSepId = 3;
  static constexpr int kMaskId = 4;
  static constexpr int kNumSpecialTokens = 5;

  /// Creates a vocabulary holding only the special tokens.
  Vocab();

  /// Adds a token if absent; returns its id either way.
  int AddToken(const std::string& token);

  /// Id for `token`, or -1 if absent. One hash lookup, no allocation.
  int Find(std::string_view token) const;

  /// Id for `token`, or kUnkId if unknown.
  int Id(std::string_view token) const;

  /// True if `token` is present.
  bool Contains(std::string_view token) const;

  /// Token for `id`; id must be in range.
  const std::string& Token(int id) const;

  int size() const { return static_cast<int>(tokens_.size()); }

  /// Length in bytes of the longest token; no longer string can match.
  size_t max_token_length() const { return max_token_length_; }

  /// Serializes one token per line.
  Status Save(const std::string& path) const;
  /// Loads a vocabulary saved by Save(). Validates the special-token prefix.
  static Result<Vocab> Load(const std::string& path);

 private:
  /// Lets `index_` be probed with a string_view (C++20 heterogeneous
  /// lookup), so candidates need not be materialized as std::string.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> tokens_;
  std::unordered_map<std::string, int, Hash, std::equal_to<>> index_;
  size_t max_token_length_ = 0;
};

}  // namespace taste::text

#endif  // TASTE_TEXT_VOCAB_H_
