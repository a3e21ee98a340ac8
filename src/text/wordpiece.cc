#include "text/wordpiece.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <queue>
#include <tuple>
#include <unordered_map>

#include "common/string_util.h"

namespace taste::text {

namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c));
}

bool IsSeparator(char c) {
  return c == '_' || c == '-' || c == '.' || c == '/' ||
         std::isspace(static_cast<unsigned char>(c));
}

/// Walks `text`'s pre-tokens (see PreTokenize) in order, lowercasing as it
/// goes, and hands each to `visit` as a view that is valid only during
/// the call. A pre-token longer than `max_bytes` is handed over cut to its
/// first max_bytes + 1 bytes, so it is still seen as over the cap but is
/// never buffered whole. Stops early, without looking at the rest of
/// `text`, as soon as `visit` returns false.
template <typename Visit>
void ForEachPreToken(std::string_view text, size_t max_bytes, Visit&& visit) {
  std::string cur;
  auto flush = [&] {
    if (cur.empty()) return true;
    const bool more = visit(std::string_view(cur));
    cur.clear();
    return more;
  };
  for (char c : text) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (IsSeparator(c)) {
      if (!flush()) return;
    } else if (IsWordChar(c)) {
      if (cur.size() <= max_bytes) cur.push_back(c);
    } else {
      // Other punctuation becomes its own single-character token.
      if (!flush() || !visit(std::string_view(&c, 1))) return;
    }
  }
  flush();
}

}  // namespace

std::vector<std::string> PreTokenize(const std::string& text) {
  std::vector<std::string> out;
  ForEachPreToken(text, SIZE_MAX, [&](std::string_view w) {
    out.emplace_back(w);
    return true;
  });
  return out;
}

void WordPieceTrainer::AddDocument(const std::string& text) {
  const size_t cap = static_cast<size_t>(std::max(0, options_.max_word_length));
  ForEachPreToken(text, cap, [&](std::string_view w) {
    if (static_cast<int>(w.size()) <= options_.max_word_length) {
      ++word_counts_[std::string(w)];
    }
    return true;
  });
}

Vocab WordPieceTrainer::Train() const {
  // Symbols are interned to ints: `names[id]` is the symbol's string.
  std::vector<std::string> names;
  std::unordered_map<std::string, int> symbol_ids;
  auto intern = [&](const std::string& s) {
    auto [it, inserted] =
        symbol_ids.try_emplace(s, static_cast<int>(names.size()));
    if (inserted) names.push_back(s);
    return it->second;
  };
  // Represent each distinct word as a sequence of symbols: first character
  // bare, continuation characters prefixed with "##".
  struct Word {
    std::vector<int> symbols;
    int64_t count;
  };
  std::vector<Word> words;
  words.reserve(word_counts_.size());
  Vocab vocab;
  // Deterministic iteration: sort words lexicographically.
  std::map<std::string, int64_t> sorted(word_counts_.begin(),
                                        word_counts_.end());
  for (const auto& [w, count] : sorted) {
    Word word;
    word.count = count;
    for (size_t i = 0; i < w.size(); ++i) {
      std::string sym = i == 0 ? std::string(1, w[i])
                               : "##" + std::string(1, w[i]);
      vocab.AddToken(sym);
      word.symbols.push_back(intern(sym));
    }
    words.push_back(std::move(word));
  }

  // Pair statistics are kept current across merges instead of recounted:
  // a merge touches only the words that hold the winning pair. A pair is
  // the key (left << 32 | right); `pair_words[key]` lists every word that
  // holds it (and possibly some that no longer do).
  auto key_of = [](int left, int right) {
    return static_cast<uint64_t>(left) << 32 | static_cast<uint32_t>(right);
  };
  auto left_of = [](uint64_t key) { return static_cast<int>(key >> 32); };
  auto right_of = [](uint64_t key) {
    return static_cast<int>(key & 0xffffffffu);
  };
  std::unordered_map<uint64_t, int64_t> pair_counts;
  std::unordered_map<uint64_t, std::vector<int>> pair_words;
  for (size_t w = 0; w < words.size(); ++w) {
    const std::vector<int>& s = words[w].symbols;
    for (size_t i = 0; i + 1 < s.size(); ++i) {
      const uint64_t key = key_of(s[i], s[i + 1]);
      pair_counts[key] += words[w].count;
      pair_words[key].push_back(static_cast<int>(w));
    }
  }

  // The winner is the highest count, ties broken by the smallest
  // (left, right) in std::pair<std::string, std::string> order. A max-heap
  // holds (count, pair) entries; an entry whose count is no longer the
  // pair's current count is stale and skipped when it surfaces.
  struct Entry {
    int64_t count;
    uint64_t key;
  };
  auto lower_priority = [&](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count < b.count;
    return std::tie(names[left_of(b.key)], names[right_of(b.key)]) <
           std::tie(names[left_of(a.key)], names[right_of(a.key)]);
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(lower_priority)>
      heap(lower_priority);
  for (const auto& [key, count] : pair_counts) heap.push({count, key});

  std::vector<int> visited(words.size(), -1);
  std::vector<uint64_t> touched;
  for (int merge = 0; vocab.size() < options_.vocab_size; ++merge) {
    while (!heap.empty()) {
      auto it = pair_counts.find(heap.top().key);
      if (it != pair_counts.end() && it->second == heap.top().count) break;
      heap.pop();
    }
    if (heap.empty()) break;
    const Entry best = heap.top();
    if (best.count < options_.min_pair_frequency) break;
    heap.pop();
    const int left = left_of(best.key);
    const int right = right_of(best.key);
    // "ab" + "##cd" -> "abcd"; "##ab" + "##cd" -> "##abcd".
    const std::string& right_name = names[right];
    std::string merged = names[left] + (StartsWith(right_name, "##")
                                            ? right_name.substr(2)
                                            : right_name);
    vocab.AddToken(merged);
    const int m = intern(merged);
    // After the rewrite no word holds (left, right) any more; a later merge
    // that recreates it re-registers its words below.
    const std::vector<int> holders = std::move(pair_words[best.key]);
    pair_words.erase(best.key);
    touched.clear();
    for (int w : holders) {
      if (visited[w] == merge) continue;
      visited[w] = merge;
      Word& word = words[w];
      std::vector<int>& s = word.symbols;
      for (size_t i = 0; i + 1 < s.size(); ++i) {
        const uint64_t key = key_of(s[i], s[i + 1]);
        pair_counts[key] -= word.count;
        touched.push_back(key);
      }
      // Left to right without overlaps: "a a a" -> "aa a".
      size_t out = 0;
      for (size_t i = 0; i < s.size(); ++i) {
        if (i + 1 < s.size() && s[i] == left && s[i + 1] == right) {
          s[out++] = m;
          ++i;
        } else {
          s[out++] = s[i];
        }
      }
      s.resize(out);
      for (size_t i = 0; i + 1 < s.size(); ++i) {
        const uint64_t key = key_of(s[i], s[i + 1]);
        pair_counts[key] += word.count;
        touched.push_back(key);
        // Pairs without the new symbol were adjacent before the rewrite,
        // so this word is already on their lists.
        if (s[i] == m || s[i + 1] == m) pair_words[key].push_back(w);
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (uint64_t key : touched) {
      auto it = pair_counts.find(key);
      if (it->second > 0) {
        heap.push({it->second, key});
      } else {
        pair_counts.erase(it);
      }
    }
  }
  return vocab;
}

WordPieceTokenizer::WordPieceTokenizer(Vocab vocab)
    : vocab_(std::move(vocab)), trie_(BuildTrie(vocab_)) {}

WordPieceTokenizer::Trie WordPieceTokenizer::BuildTrie(const Vocab& vocab) {
  // Every token goes into a map-linked trie first; the result lays it out
  // breadth first, so each node's edges are one sorted run.
  std::vector<std::map<uint8_t, uint32_t>> children(1);
  std::vector<int32_t> ids(1, -1);
  for (int t = 0; t < vocab.size(); ++t) {
    uint32_t node = 0;
    for (char c : vocab.Token(t)) {
      auto [it, inserted] = children[node].try_emplace(
          static_cast<uint8_t>(c), static_cast<uint32_t>(children.size()));
      node = it->second;
      if (inserted) {
        children.emplace_back();
        ids.push_back(-1);
      }
    }
    ids[node] = t;
  }
  Trie trie;
  const size_t nodes = children.size();
  trie.id.reserve(nodes);
  trie.first_edge.reserve(nodes + 1);
  trie.edge_byte.reserve(nodes - 1);
  trie.edge_child.reserve(nodes - 1);
  // order[n] is the map node laid out as node n: a node's children get
  // the next numbers as it is laid out, so the queue is `order` itself.
  std::vector<uint32_t> order = {0};
  for (size_t n = 0; n < order.size(); ++n) {
    trie.id.push_back(ids[order[n]]);
    trie.first_edge.push_back(static_cast<uint32_t>(trie.edge_byte.size()));
    for (const auto& [byte, child] : children[order[n]]) {
      trie.edge_byte.push_back(byte);
      trie.edge_child.push_back(static_cast<uint32_t>(order.size()));
      order.push_back(child);
    }
  }
  trie.first_edge.push_back(static_cast<uint32_t>(trie.edge_byte.size()));
  const uint32_t hash = trie.Child(0, '#');
  const uint32_t continuation =
      hash == Trie::kNone ? hash : trie.Child(hash, '#');
  trie.first_step.assign(2 * 256, Trie::kNone);
  for (int b = 0; b < 256; ++b) {
    trie.first_step[b] = trie.Child(0, static_cast<uint8_t>(b));
    if (continuation != Trie::kNone) {
      trie.first_step[256 + b] =
          trie.Child(continuation, static_cast<uint8_t>(b));
    }
  }
  return trie;
}

uint32_t WordPieceTokenizer::Trie::Child(uint32_t node, uint8_t byte) const {
  const uint32_t end = first_edge[node + 1];
  for (uint32_t e = first_edge[node]; e < end; ++e) {
    if (edge_byte[e] >= byte) {
      return edge_byte[e] == byte ? edge_child[e] : kNone;
    }
  }
  return kNone;
}

size_t WordPieceTokenizer::trie_bytes() const {
  return trie_.id.size() * sizeof(int32_t) +
         trie_.first_edge.size() * sizeof(uint32_t) +
         trie_.edge_byte.size() * sizeof(uint8_t) +
         trie_.edge_child.size() * sizeof(uint32_t) +
         trie_.first_step.size() * sizeof(uint32_t);
}

void WordPieceTokenizer::EncodeWord(std::string_view word,
                                    std::vector<int>* out) const {
  // BERT's max_input_chars_per_word: a longer pre-token is one [UNK]
  // without a max-munch pass over it, so one huge identifier in a cell
  // cannot cost a trie step per byte however few ids are wanted.
  if (word.size() > kMaxWordBytes) {
    out->push_back(Vocab::kUnkId);
    return;
  }
  const size_t first = out->size();
  size_t pos = 0;
  while (pos < word.size()) {
    // The first piece is spelled from the root, every later one from the
    // "##" node. The deepest token on the walk is the longest candidate
    // the vocabulary holds; the walk ends where no token goes on, so it
    // never looks past the vocabulary's longest token.
    uint32_t node = trie_.first_step[(pos == 0 ? 0 : 256) +
                                     static_cast<uint8_t>(word[pos])];
    int id = -1;
    size_t len = 0;
    for (size_t i = pos + 1; node != Trie::kNone; ++i) {
      if (trie_.id[node] >= 0) {
        id = trie_.id[node];
        len = i - pos;
      }
      if (i == word.size()) break;
      node = trie_.Child(node, static_cast<uint8_t>(word[i]));
    }
    if (id < 0) {
      // Whole word becomes [UNK] (BERT semantics).
      out->resize(first);
      out->push_back(Vocab::kUnkId);
      return;
    }
    out->push_back(id);
    pos += len;
  }
}

void WordPieceTokenizer::EncodeInto(const std::string& text, size_t limit,
                                    std::vector<int>* out) const {
  if (out->size() >= limit) return;
  ForEachPreToken(text, kMaxWordBytes, [&](std::string_view w) {
    EncodeWord(w, out);
    return out->size() < limit;
  });
}

std::vector<int> WordPieceTokenizer::Encode(const std::string& text) const {
  std::vector<int> out;
  EncodeInto(text, SIZE_MAX, &out);
  return out;
}

std::vector<int> WordPieceTokenizer::EncodeFixed(const std::string& text,
                                                 int len) const {
  TASTE_CHECK(len >= 0);
  std::vector<int> ids;
  EncodeInto(text, static_cast<size_t>(len), &ids);
  ids.resize(static_cast<size_t>(len), Vocab::kPadId);
  return ids;
}

std::string WordPieceTokenizer::Decode(const std::vector<int>& ids) const {
  std::string out;
  for (int id : ids) {
    const std::string& t = vocab_.Token(id);
    if (StartsWith(t, "##")) {
      out += t.substr(2);
    } else {
      if (!out.empty()) out += ' ';
      out += t;
    }
  }
  return out;
}

}  // namespace taste::text
