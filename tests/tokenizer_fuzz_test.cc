// Seeded property/fuzz test of the WordPiece encoder on tenant-controlled
// text: arbitrary bytes (NUL, bytes >= 0x80, control characters, invalid
// UTF-8), a 1 MB identifier and a 100k-word cell. Ids must stay in range,
// EncodeFixed must return exactly `len` ids, and Encode must equal the
// reference max-munch below, which builds every candidate string from the
// whole remaining word down (and, like the encoder, maps a pre-token over
// kMaxWordBytes to one [UNK]). Over random vocabularies, the encoder's trie
// walk must also equal the hash-probing max-munch it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "text/vocab.h"
#include "text/wordpiece.h"

namespace taste::text {
namespace {

/// The reference encoder: for each position, tries every candidate length
/// from the rest of the word down to 1.
void ReferenceEncodeWord(const Vocab& vocab, const std::string& word,
                         std::vector<int>* out) {
  if (word.size() > WordPieceTokenizer::kMaxWordBytes) {
    out->push_back(Vocab::kUnkId);
    return;
  }
  size_t pos = 0;
  std::vector<int> pieces;
  while (pos < word.size()) {
    size_t len = word.size() - pos;
    bool found = false;
    while (len > 0) {
      std::string candidate = (pos == 0 ? "" : "##") + word.substr(pos, len);
      if (vocab.Contains(candidate)) {
        pieces.push_back(vocab.Id(candidate));
        pos += len;
        found = true;
        break;
      }
      --len;
    }
    if (!found) {
      out->push_back(Vocab::kUnkId);
      return;
    }
  }
  out->insert(out->end(), pieces.begin(), pieces.end());
}

std::vector<int> ReferenceEncode(const Vocab& vocab, const std::string& text) {
  std::vector<int> out;
  for (const std::string& w : PreTokenize(text)) {
    ReferenceEncodeWord(vocab, w, &out);
  }
  return out;
}

const WordPieceTokenizer& Tokenizer() {
  static const WordPieceTokenizer* tok = [] {
    WordPieceTrainer trainer({.vocab_size = 400, .min_pair_frequency = 2});
    for (int i = 0; i < 20; ++i) {
      trainer.AddDocument("customer_email_address city country name zip");
      trainer.AddDocument("phone number credit card user id date 555 0199");
      trainer.AddDocument("orders order_id item_sku total_price created_at");
      trainer.AddDocument("abcabcabc aaaa bbbbbb abab baba cab");
    }
    return new WordPieceTokenizer(trainer.Train());
  }();
  return *tok;
}

void ExpectIdsInRange(const std::vector<int>& ids, int vocab_size) {
  for (int id : ids) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, vocab_size);
  }
}

/// Random bytes drawn mostly from word characters, so pre-tokens get long,
/// with the rest spread over every byte value.
std::string RandomBytes(Rng& rng, size_t len) {
  static const char kWordy[] = "abcdeilmnorstuyz0159_ -";
  std::string s(len, '\0');
  for (char& c : s) {
    c = rng.NextBelow(4) == 0
            ? static_cast<char>(rng.NextBelow(256))
            : kWordy[rng.NextBelow(sizeof(kWordy) - 1)];
  }
  return s;
}

TEST(TokenizerFuzzTest, ArbitraryBytesMatchReference) {
  const WordPieceTokenizer& tok = Tokenizer();
  const int vocab_size = tok.vocab().size();
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string text = RandomBytes(rng, rng.NextBelow(trial < 1900
                                                                ? 200
                                                                : 4000));
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::vector<int> ids = tok.Encode(text);
    ExpectIdsInRange(ids, vocab_size);
    ASSERT_EQ(ids, ReferenceEncode(tok.vocab(), text));
    const int len = static_cast<int>(rng.NextBelow(40));
    std::vector<int> fixed = tok.EncodeFixed(text, len);
    ASSERT_EQ(fixed.size(), static_cast<size_t>(len));
    std::vector<int> want = ids;
    want.resize(static_cast<size_t>(len), Vocab::kPadId);
    ASSERT_EQ(fixed, want);
  }
}

TEST(TokenizerFuzzTest, WordsOfVocabPiecesMatchReference) {
  // Words glued from the vocabulary's own pieces put its longest tokens at
  // the start and in the middle of words, where max-munch's cap binds.
  const WordPieceTokenizer& tok = Tokenizer();
  const Vocab& vocab = tok.vocab();
  Rng rng(13);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text;
    const int words = 1 + static_cast<int>(rng.NextBelow(4));
    for (int w = 0; w < words; ++w) {
      const int pieces = 1 + static_cast<int>(rng.NextBelow(6));
      for (int p = 0; p < pieces; ++p) {
        const std::string& t = vocab.Token(
            Vocab::kNumSpecialTokens +
            static_cast<int>(rng.NextBelow(vocab.size() -
                                           Vocab::kNumSpecialTokens)));
        text += t.compare(0, 2, "##") == 0 ? t.substr(2) : t;
      }
      text += ' ';
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + text);
    ASSERT_EQ(tok.Encode(text), ReferenceEncode(vocab, text));
  }
}

TEST(TokenizerFuzzTest, EdgeBytesMatchReference) {
  const WordPieceTokenizer& tok = Tokenizer();
  const std::vector<std::string> cases = {
      std::string("email\0address", 13),
      "\xff\xfe\x80\xc3\x28 email",  // invalid UTF-8
      "caf\xc3\xa9 na\xc3\xafve",    // valid UTF-8, bytes >= 0x80
      "\x01\x02\x1b[31mred\x7f",
      std::string(300, 'a') + std::string(300, 'b'),
      "abcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcx",
  };
  for (const std::string& text : cases) {
    const std::vector<int> ids = tok.Encode(text);
    ExpectIdsInRange(ids, tok.vocab().size());
    EXPECT_EQ(ids, ReferenceEncode(tok.vocab(), text));
  }
}

TEST(TokenizerFuzzTest, OneMegabyteIdentifier) {
  const WordPieceTokenizer& tok = Tokenizer();
  Rng rng(11);
  // A word of exactly kMaxWordBytes still max-munches into pieces.
  std::string word(WordPieceTokenizer::kMaxWordBytes, 'a');
  for (char& c : word) c = "abcdeilmnorstu"[rng.NextBelow(14)];
  const std::vector<int> ids = tok.Encode(word);
  ExpectIdsInRange(ids, tok.vocab().size());
  EXPECT_EQ(ids, ReferenceEncode(tok.vocab(), word));
  ASSERT_GE(ids.size(), 16u);
  const std::vector<int> fixed = tok.EncodeFixed(word, 16);
  EXPECT_EQ(fixed, std::vector<int>(ids.begin(), ids.begin() + 16));
  // One letter the vocabulary lacks turns the whole identifier into [UNK].
  ASSERT_FALSE(tok.vocab().Contains("##q"));
  std::string with_q = word;
  with_q[with_q.size() / 2] = 'q';
  EXPECT_EQ(tok.Encode(with_q), std::vector<int>{Vocab::kUnkId});
  // A 1 MiB identifier is one [UNK], alone and inside a cell.
  std::string huge(1 << 20, 'a');
  for (char& c : huge) c = "abcdeilmnorstu"[rng.NextBelow(14)];
  EXPECT_EQ(tok.Encode(huge), std::vector<int>{Vocab::kUnkId});
  std::vector<int> want_fixed(16, Vocab::kPadId);
  want_fixed[0] = Vocab::kUnkId;
  EXPECT_EQ(tok.EncodeFixed(huge, 16), want_fixed);
  const std::string cell = "email " + huge + " zip";
  std::vector<int> want = tok.Encode("email");
  want.push_back(Vocab::kUnkId);
  const std::vector<int> zip = tok.Encode("zip");
  want.insert(want.end(), zip.begin(), zip.end());
  EXPECT_EQ(tok.Encode(cell), want);
  EXPECT_EQ(std::count(want.begin(), want.end(), Vocab::kUnkId), 1);
}

TEST(TokenizerFuzzTest, WordsAroundTheCapMatchReference) {
  // The pre-tokenizer stops buffering a word once it passes kMaxWordBytes;
  // the reference sees every word whole. Their ids must agree at the cap,
  // one byte past it and at 1 MiB, alone and between other words.
  const WordPieceTokenizer& tok = Tokenizer();
  Rng rng(23);
  const size_t cap = WordPieceTokenizer::kMaxWordBytes;
  for (size_t len : {cap, cap + 1, size_t{1} << 20}) {
    std::string word(len, 'a');
    for (char& c : word) c = "abcdeilmnorstu"[rng.NextBelow(14)];
    for (const std::string& text :
         {word, "email " + word + " zip", word + "-" + word + "_email"}) {
      const std::vector<int> want = ReferenceEncode(tok.vocab(), text);
      EXPECT_EQ(tok.Encode(text), want) << "word of " << len << " bytes";
      std::vector<int> want_fixed(want.begin(),
                                  want.begin() + std::min<size_t>(
                                                     want.size(), 16));
      want_fixed.resize(16, Vocab::kPadId);
      EXPECT_EQ(tok.EncodeFixed(text, 16), want_fixed)
          << "word of " << len << " bytes";
    }
  }
}

TEST(TokenizerFuzzTest, HundredThousandWordCell) {
  const WordPieceTokenizer& tok = Tokenizer();
  std::string cell;
  for (int i = 0; i < 100000; ++i) cell += i % 3 == 0 ? "email " : "zip ";
  const std::vector<int> ids = tok.Encode(cell);
  ExpectIdsInRange(ids, tok.vocab().size());
  EXPECT_GE(ids.size(), 100000u);
  for (int len : {0, 8, 512}) {
    std::vector<int> fixed = tok.EncodeFixed(cell, len);
    ASSERT_EQ(fixed.size(), static_cast<size_t>(len));
    EXPECT_TRUE(std::equal(fixed.begin(), fixed.end(), ids.begin()));
  }
}

// -- Random vocabularies against the hash-probing encoder ---------------------

/// The hash-probing max-munch the trie walk replaced: at each position,
/// one vocabulary lookup per candidate, from the longest the vocabulary's
/// longest token allows down to one byte.
void ProbingEncodeWord(const Vocab& vocab, std::string_view word,
                       std::vector<int>* out) {
  if (word.size() > WordPieceTokenizer::kMaxWordBytes) {
    out->push_back(Vocab::kUnkId);
    return;
  }
  const size_t max_len = vocab.max_token_length();
  std::string buf(2 + std::min(word.size(), max_len), '#');
  const size_t first = out->size();
  size_t pos = 0;
  while (pos < word.size()) {
    const size_t prefix = pos == 0 ? 0 : 2;
    size_t len =
        max_len > prefix ? std::min(word.size() - pos, max_len - prefix) : 0;
    word.copy(buf.data() + 2, len, pos);
    const char* candidate = buf.data() + 2 - prefix;
    int id = -1;
    for (; len > 0; --len) {
      id = vocab.Find(std::string_view(candidate, prefix + len));
      if (id >= 0) break;
    }
    if (id < 0) {
      out->resize(first);
      out->push_back(Vocab::kUnkId);
      return;
    }
    out->push_back(id);
    pos += len;
  }
}

std::vector<int> ProbingEncode(const Vocab& vocab, const std::string& text) {
  std::vector<int> out;
  for (const std::string& w : PreTokenize(text)) {
    ProbingEncodeWord(vocab, w, &out);
  }
  return out;
}

constexpr char kAlphabet[] = "abcde0129";

std::string RandomWord(Rng& rng, size_t max_len) {
  std::string w(1 + rng.NextBelow(max_len), 'a');
  for (char& c : w) c = kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
  return w;
}

/// A vocabulary that stresses the walk: most (not all) single characters
/// bare and as "##" pieces, random pieces of up to 8 bytes, pieces that
/// exist only as "##" continuations, the bare "#", "##" and "###"
/// pieces, punctuation and uppercase tokens, runs of tokens that share a
/// long prefix, and tokens longer than any word the text holds (one past
/// kMaxWordBytes).
Vocab RandomVocab(Rng& rng) {
  Vocab vocab;
  for (const char* c = kAlphabet; *c != '\0'; ++c) {
    if (rng.NextBelow(8) != 0) vocab.AddToken(std::string(1, *c));
    if (rng.NextBelow(8) != 0) vocab.AddToken("##" + std::string(1, *c));
  }
  const int pieces = 10 + static_cast<int>(rng.NextBelow(60));
  for (int i = 0; i < pieces; ++i) {
    const std::string w = RandomWord(rng, 8);
    switch (rng.NextBelow(3)) {
      case 0: vocab.AddToken(w); break;
      case 1: vocab.AddToken("##" + w); break;
      default: vocab.AddToken(w); vocab.AddToken("##" + w); break;
    }
  }
  for (const char* t : {"#", "##", "###", ",", "@", "$", "ABC", "[CLS]x"}) {
    if (rng.NextBool()) vocab.AddToken(t);
  }
  const std::string stem = RandomWord(rng, 4) + RandomWord(rng, 4) +
                           RandomWord(rng, 4) + "abcde";
  for (size_t len = 2; len <= stem.size(); len += 1 + rng.NextBelow(3)) {
    vocab.AddToken(stem.substr(0, len) + kAlphabet[rng.NextBelow(9)]);
    vocab.AddToken("##" + stem.substr(0, len));
  }
  vocab.AddToken(stem + stem + stem);
  std::string longest(WordPieceTokenizer::kMaxWordBytes + 1, 'a');
  for (char& c : longest) c = kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
  vocab.AddToken(longest);
  vocab.AddToken("##" + longest);
  return vocab;
}

TEST(TokenizerFuzzTest, RandomVocabulariesMatchProbingEncoder) {
  Rng rng(41);
  for (int v = 0; v < 60; ++v) {
    const WordPieceTokenizer tok(RandomVocab(rng));
    const Vocab& vocab = tok.vocab();
    EXPECT_GT(tok.trie_bytes(), 0u);
    for (int trial = 0; trial < 100; ++trial) {
      // Words of the alphabet, of the vocabulary's own pieces glued
      // together, and of its longest tokens, between separators and
      // punctuation (which is its own pre-token).
      std::string text;
      const int words = 1 + static_cast<int>(rng.NextBelow(6));
      for (int w = 0; w < words; ++w) {
        switch (rng.NextBelow(3)) {
          case 0:
            text += RandomWord(rng, 24);
            break;
          case 1:
            for (int p = 0, n = 1 + static_cast<int>(rng.NextBelow(5)); p < n;
                 ++p) {
              const std::string& t = vocab.Token(
                  static_cast<int>(rng.NextBelow(vocab.size())));
              text += t.compare(0, 2, "##") == 0 ? t.substr(2) : t;
            }
            break;
          default:
            text += vocab.Token(vocab.size() - 1 -
                                static_cast<int>(rng.NextBelow(3)));
            break;
        }
        text += " _-,@#$.!"[rng.NextBelow(9)];
      }
      SCOPED_TRACE(::testing::Message()
                   << "vocab " << v << " trial " << trial << ": " << text);
      const std::vector<int> want = ProbingEncode(vocab, text);
      ASSERT_EQ(tok.Encode(text), want);
      const size_t len = rng.NextBelow(12);
      std::vector<int> want_fixed(
          want.begin(), want.begin() + std::min(want.size(), len));
      want_fixed.resize(len, Vocab::kPadId);
      ASSERT_EQ(tok.EncodeFixed(text, static_cast<int>(len)), want_fixed);
    }
  }
}

TEST(TokenizerFuzzTest, VocabularyWithoutContinuationsEncodesFirstPiecesOnly) {
  // No token starts with "##": only one-piece words encode; every other
  // word is one [UNK], as the probing encoder has it.
  Vocab vocab;
  for (const char* t : {"ab", "abc", "c", "#"}) vocab.AddToken(t);
  const WordPieceTokenizer tok(vocab);
  for (const std::string text : {"ab abc c", "abcab", "abcc # ##", "x"}) {
    EXPECT_EQ(tok.Encode(text), ProbingEncode(vocab, text)) << text;
  }
  EXPECT_EQ(tok.Encode("abc ab"),
            (std::vector<int>{vocab.Find("abc"), vocab.Find("ab")}));
  EXPECT_EQ(tok.Encode("abcab"), std::vector<int>{Vocab::kUnkId});
}

}  // namespace
}  // namespace taste::text
