// Differential test of WordPieceTrainer's incremental merge loop against the
// quadratic reference it replaced (kept below, verbatim in behaviour): every
// trained vocabulary must match token for token, id for id, because vocab id
// order is part of the checkpoint contract. Also pins a digest of the two
// vocabularies the committed serving checkpoints were trained against.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "data/dataset.h"
#include "data/table_generator.h"
#include "eval/experiment.h"
#include "text/vocab.h"
#include "text/wordpiece.h"

namespace taste::text {
namespace {

/// The reference trainer: recounts every adjacent pair of the corpus into an
/// ordered map and rewrites every word, once per merge.
class QuadraticTrainer {
 public:
  explicit QuadraticTrainer(WordPieceTrainerOptions options)
      : options_(options) {}

  void AddDocument(const std::string& text) {
    for (const std::string& w : PreTokenize(text)) {
      if (static_cast<int>(w.size()) <= options_.max_word_length) {
        ++word_counts_[w];
      }
    }
  }

  Vocab Train() const {
    struct Word {
      std::vector<std::string> symbols;
      int64_t count;
    };
    std::vector<Word> words;
    Vocab vocab;
    std::map<std::string, int64_t> sorted(word_counts_.begin(),
                                          word_counts_.end());
    for (const auto& [w, count] : sorted) {
      Word word;
      word.count = count;
      for (size_t i = 0; i < w.size(); ++i) {
        std::string sym = i == 0 ? std::string(1, w[i])
                                 : "##" + std::string(1, w[i]);
        word.symbols.push_back(sym);
        vocab.AddToken(sym);
      }
      words.push_back(std::move(word));
    }
    while (vocab.size() < options_.vocab_size) {
      std::map<std::pair<std::string, std::string>, int64_t> pair_counts;
      for (const Word& w : words) {
        for (size_t i = 0; i + 1 < w.symbols.size(); ++i) {
          pair_counts[{w.symbols[i], w.symbols[i + 1]}] += w.count;
        }
      }
      if (pair_counts.empty()) break;
      auto best = pair_counts.begin();
      for (auto it = pair_counts.begin(); it != pair_counts.end(); ++it) {
        if (it->second > best->second) best = it;
      }
      if (best->second < options_.min_pair_frequency) break;
      const auto [left, right] = best->first;
      std::string merged =
          left + (StartsWith(right, "##") ? right.substr(2) : right);
      vocab.AddToken(merged);
      for (Word& w : words) {
        std::vector<std::string> out;
        out.reserve(w.symbols.size());
        for (size_t i = 0; i < w.symbols.size(); ++i) {
          if (i + 1 < w.symbols.size() && w.symbols[i] == left &&
              w.symbols[i + 1] == right) {
            out.push_back(merged);
            ++i;
          } else {
            out.push_back(w.symbols[i]);
          }
        }
        w.symbols = std::move(out);
      }
    }
    return vocab;
  }

 private:
  WordPieceTrainerOptions options_;
  std::unordered_map<std::string, int64_t> word_counts_;
};

std::vector<std::string> Tokens(const Vocab& v) {
  std::vector<std::string> out;
  for (int id = 0; id < v.size(); ++id) out.push_back(v.Token(id));
  return out;
}

/// Trains both trainers on `docs` and expects the same tokens in id order.
void ExpectSameVocab(const std::vector<std::string>& docs,
                     WordPieceTrainerOptions options) {
  WordPieceTrainer trainer(options);
  QuadraticTrainer reference(options);
  for (const std::string& d : docs) {
    trainer.AddDocument(d);
    reference.AddDocument(d);
  }
  EXPECT_EQ(Tokens(trainer.Train()), Tokens(reference.Train()));
}

/// Documents of random words over the first `alphabet` letters: short
/// alphabets force count ties and overlapping runs such as "a a a a".
std::vector<std::string> RandomCorpus(Rng& rng, int alphabet) {
  std::vector<std::string> docs(1 + rng.NextBelow(6));
  for (std::string& doc : docs) {
    const int words = 1 + static_cast<int>(rng.NextBelow(30));
    for (int w = 0; w < words; ++w) {
      const int len = 1 + static_cast<int>(rng.NextBelow(10));
      for (int c = 0; c < len; ++c) {
        doc.push_back(static_cast<char>('a' + rng.NextBelow(alphabet)));
      }
      doc.push_back(' ');
    }
  }
  return docs;
}

TEST(WordPieceTrainerDiffTest, SeededRandomCorporaMatchReference) {
  Rng rng(20261018);
  for (int trial = 0; trial < 600; ++trial) {
    const int alphabet = 2 + static_cast<int>(rng.NextBelow(4));
    const std::vector<std::string> docs = RandomCorpus(rng, alphabet);
    WordPieceTrainerOptions options;
    options.vocab_size = 5 + static_cast<int>(rng.NextBelow(120));
    options.min_pair_frequency = 1 + static_cast<int>(rng.NextBelow(2));
    options.max_word_length = 4 + static_cast<int>(rng.NextBelow(8));
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameVocab(docs, options);
    if (HasFailure()) return;
  }
}

TEST(WordPieceTrainerDiffTest, GeneratedTablesMatchReference) {
  // The shape of every test fixture's tokenizer: one document per table.
  for (const data::DatasetProfile& profile :
       {data::DatasetProfile::WikiLike(12), data::DatasetProfile::GitLike(12)}) {
    const std::vector<std::string> docs =
        data::BuildCorpusDocuments(data::GenerateDataset(profile));
    for (int vocab : {240, 400}) ExpectSameVocab(docs, {.vocab_size = vocab});
  }
}

TEST(WordPieceTrainerDiffTest, MinPairFrequencyOneAndTwo) {
  const std::vector<std::string> docs = {
      "aaaa aaa aa a abab ababab ba bab", "customer customers email emails",
      "zz zzz zzzz q"};
  for (int min_freq : {1, 2}) {
    for (int vocab : {10, 25, 60, 400}) {
      ExpectSameVocab(docs, {.vocab_size = vocab,
                             .min_pair_frequency = min_freq});
    }
  }
}

TEST(WordPieceTrainerDiffTest, TwoPairsMergingToTheSameString) {
  // ("##ab", "##a") and ("##a", "##ba") both spell "##aba", and the
  // trainer interns symbols by string, so a second such merge would reuse
  // the first one's symbol and add nothing to the vocabulary while still
  // spending a merge. No corpus tried so far reaches one (the left-to-right
  // rewrite seems to rule it out); these overlapping runs are where one
  // would show up first.
  const std::vector<std::string> docs = {"xaba xaba xaba xab xab xba xba",
                                         "yabba yaba yabab ybaba aaaaa"};
  for (int vocab = 8; vocab <= 40; ++vocab) {
    for (int min_freq : {1, 2}) {
      ExpectSameVocab(docs, {.vocab_size = vocab,
                             .min_pair_frequency = min_freq});
    }
  }
}

TEST(WordPieceTrainerDiffTest, EmptyCorpus) {
  WordPieceTrainer trainer({.vocab_size = 50});
  EXPECT_EQ(trainer.Train().size(), Vocab::kNumSpecialTokens);
  ExpectSameVocab({}, {.vocab_size = 50});
  ExpectSameVocab({"", " _-./ "}, {.vocab_size = 50});
}

TEST(WordPieceTrainerDiffTest, WordsAtAndPastMaxWordLength) {
  const std::string at(32, 'k');
  const std::string past = std::string(32, 'm') + "q";
  const std::vector<std::string> docs = {at + " " + past, at, past + " kk"};
  ExpectSameVocab(docs, {.vocab_size = 100, .min_pair_frequency = 1});
  WordPieceTrainer trainer({.vocab_size = 100, .min_pair_frequency = 1});
  for (const std::string& d : docs) trainer.AddDocument(d);
  const Vocab v = trainer.Train();
  EXPECT_TRUE(v.Contains("k"));
  EXPECT_FALSE(v.Contains("m"));  // only the skipped word holds 'm'
  ExpectSameVocab({"abcdef abcdefg abcde"},
                  {.vocab_size = 40, .min_pair_frequency = 1,
                   .max_word_length = 6});
  // A 1 MiB word is skipped as well, although the pre-tokenizer buffers
  // only its first max_word_length + 1 bytes.
  const std::string huge(1 << 20, 'z');
  const std::vector<std::string> huge_docs = {at + " " + huge,
                                              huge + "-" + at + " kk"};
  ExpectSameVocab(huge_docs, {.vocab_size = 100, .min_pair_frequency = 1});
  WordPieceTrainer huge_trainer({.vocab_size = 100, .min_pair_frequency = 1});
  for (const std::string& d : huge_docs) huge_trainer.AddDocument(d);
  EXPECT_FALSE(huge_trainer.Train().Contains("z"));
}

/// FNV-1a over the tokens in id order, each followed by '\n' (the
/// Vocab::Save format).
uint64_t VocabDigest(const Vocab& v) {
  uint64_t h = 1469598103934665603ull;
  for (int id = 0; id < v.size(); ++id) {
    for (char c : v.Token(id) + "\n") {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  return h;
}

/// The tokenizer of eval::BuildStack for the committed serving checkpoints
/// (perfbench's and checkpoint_load_test's options): if its ids move, those
/// checkpoints still load but embed the wrong tokens.
Vocab ServedVocab(const data::DatasetProfile& profile) {
  eval::StackOptions o;
  o.num_tables = 240;
  o.vocab_size = 700;
  o.train_adtd = false;
  o.train_adtd_hist = false;
  o.train_baselines = false;
  o.cache_dir = "";
  o.seed = 1234;
  auto stack = eval::BuildStack(profile, o);
  TASTE_CHECK(stack.ok());
  return stack->tokenizer->vocab();
}

TEST(WordPieceTrainerDiffTest, WikiLikeServedVocabDigest) {
  const Vocab v = ServedVocab(data::DatasetProfile::WikiLike());
  EXPECT_EQ(v.size(), 700);
  EXPECT_EQ(VocabDigest(v), 0x3e645c5e431d7dcfull);
}

TEST(WordPieceTrainerDiffTest, GitLikeServedVocabDigest) {
  const Vocab v = ServedVocab(data::DatasetProfile::GitLike());
  EXPECT_EQ(v.size(), 700);
  EXPECT_EQ(VocabDigest(v), 0x12928a2ea4d5f73eull);
}

}  // namespace
}  // namespace taste::text
