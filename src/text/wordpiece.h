// From-scratch WordPiece tokenization: normalization, a BPE-style subword
// vocabulary trainer, and the greedy longest-match-first encoder, which
// walks a byte trie over the vocabulary.
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
///
/// The vocabulary is compiled once, at construction, into a byte trie
/// (Song et al., "Fast WordPiece Tokenization", EMNLP 2021, without the
/// failure links): max-munch at a position walks the trie along the word's
/// bytes and keeps the last node that spells a token, instead of probing
/// the vocabulary's hash table once per candidate length. The trie holds
/// exactly the vocabulary's tokens, so the walk finds the same longest
/// match, and the ids are the probing encoder's.
class WordPieceTokenizer {
 public:
  /// Pre-tokens longer than this many bytes encode to a single [UNK].
  static constexpr size_t kMaxWordBytes = 100;

  explicit WordPieceTokenizer(Vocab vocab);

  /// Encodes raw text to token ids (no special tokens added).
  std::vector<int> Encode(const std::string& text) const;

  /// Encodes and truncates/pads to exactly `len` ids using [PAD].
  std::vector<int> EncodeFixed(const std::string& text, int len) const;

  /// Decodes ids back to a readable string (## pieces joined, specials
  /// rendered literally). For debugging and MLM inspection.
  std::string Decode(const std::vector<int>& ids) const;

  const Vocab& vocab() const { return vocab_; }

  /// Resident bytes of the vocabulary trie (its arrays).
  size_t trie_bytes() const;

 private:
  /// The vocabulary as a byte trie. Node 0 is the root; node n's children
  /// are the edges [first_edge[n], first_edge[n + 1]), sorted by byte, and
  /// `id[n]` is the id of the token that spells the path to n, or -1.
  struct Trie {
    static constexpr uint32_t kNone = UINT32_MAX;

    std::vector<int32_t> id;
    std::vector<uint32_t> first_edge;
    std::vector<uint8_t> edge_byte;
    std::vector<uint32_t> edge_child;
    /// The children of the root and of the "##" node (where every later
    /// piece starts) by byte, kNone where there is none: the two nodes
    /// with the most edges, looked up once per piece.
    std::vector<uint32_t> first_step;  // 2 x 256

    /// `node`'s child along `byte`, or kNone.
    uint32_t Child(uint32_t node, uint8_t byte) const;
  };

  static Trie BuildTrie(const Vocab& vocab);

  /// WordPiece max-munch over one pre-token; appends ids.
  void EncodeWord(std::string_view word, std::vector<int>* out) const;

  /// Appends the ids of `text`'s pre-tokens, stopping before the first
  /// pre-token that starts once `out` holds `limit` ids: the rest of the
  /// text is never lowercased or split.
  void EncodeInto(const std::string& text, size_t limit,
                  std::vector<int>* out) const;

  Vocab vocab_;
  Trie trie_;
};

}  // namespace taste::text

#endif  // TASTE_TEXT_WORDPIECE_H_
