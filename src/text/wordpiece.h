// From-scratch WordPiece tokenization: normalization, a BPE-style subword
// vocabulary trainer, and the greedy longest-match-first encoder.
//
// This substitutes for the HuggingFace tokenizer used by the paper's
// implementation. The "##" continuation convention and special tokens
// follow BERT so encoder inputs look like what TinyBERT-style models see.

#ifndef TASTE_TEXT_WORDPIECE_H_
#define TASTE_TEXT_WORDPIECE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "text/vocab.h"

namespace taste::text {

/// Lowercases ASCII, treats '_'/'-'/'.'/'/' as separators, isolates other
/// punctuation into single-character words, and splits on whitespace.
/// Snake_case and kebab-case identifiers — the dominant shape of column
/// names — therefore decompose into their constituent words.
std::vector<std::string> PreTokenize(const std::string& text);

/// Options for training a WordPiece vocabulary.
struct WordPieceTrainerOptions {
  int vocab_size = 2000;      // total including specials and characters
  int min_pair_frequency = 2; // stop merging below this pair count
  int max_word_length = 32;   // longer pre-tokens are skipped in training
};

/// Learns a subword vocabulary from a text corpus using BPE-style merges
/// over word-frequency statistics; continuation pieces carry the "##"
/// prefix.
class WordPieceTrainer {
 public:
  explicit WordPieceTrainer(WordPieceTrainerOptions options = {})
      : options_(options) {}

  /// Accumulates word statistics from one document.
  void AddDocument(const std::string& text);

  /// Runs the merge loop and produces the final vocabulary.
  Vocab Train() const;

 private:
  WordPieceTrainerOptions options_;
  std::unordered_map<std::string, int64_t> word_counts_;
};

/// Greedy longest-match-first WordPiece encoder over a fixed vocabulary.
class WordPieceTokenizer {
 public:
  /// Pre-tokens longer than this many bytes encode to a single [UNK].
  static constexpr size_t kMaxWordBytes = 100;

  explicit WordPieceTokenizer(Vocab vocab) : vocab_(std::move(vocab)) {}

  /// Encodes raw text to token ids (no special tokens added).
  std::vector<int> Encode(const std::string& text) const;

  /// Encodes and truncates/pads to exactly `len` ids using [PAD].
  std::vector<int> EncodeFixed(const std::string& text, int len) const;

  /// Decodes ids back to a readable string (## pieces joined, specials
  /// rendered literally). For debugging and MLM inspection.
  std::string Decode(const std::vector<int>& ids) const;

  const Vocab& vocab() const { return vocab_; }

 private:
  /// WordPiece max-munch over one pre-token; appends ids.
  void EncodeWord(std::string_view word, std::vector<int>* out) const;

  /// Appends the ids of `text`'s pre-tokens, stopping before the first
  /// pre-token that starts once `out` holds `limit` ids: the rest of the
  /// text is never lowercased or split.
  void EncodeInto(const std::string& text, size_t limit,
                  std::vector<int>* out) const;

  Vocab vocab_;
};

}  // namespace taste::text

#endif  // TASTE_TEXT_WORDPIECE_H_
