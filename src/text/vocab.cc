#include "text/vocab.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace taste::text {

namespace {
const char* const kSpecialTokens[] = {"[PAD]", "[UNK]", "[CLS]", "[SEP]",
                                      "[MASK]"};
}

Vocab::Vocab() {
  for (const char* t : kSpecialTokens) AddToken(t);
}

int Vocab::AddToken(const std::string& token) {
  auto it = index_.find(token);
  if (it != index_.end()) return it->second;
  int id = static_cast<int>(tokens_.size());
  tokens_.push_back(token);
  index_.emplace(token, id);
  max_token_length_ = std::max(max_token_length_, token.size());
  return id;
}

int Vocab::Find(std::string_view token) const {
  auto it = index_.find(token);
  return it == index_.end() ? -1 : it->second;
}

int Vocab::Id(std::string_view token) const {
  int id = Find(token);
  return id < 0 ? kUnkId : id;
}

bool Vocab::Contains(std::string_view token) const {
  return Find(token) >= 0;
}

const std::string& Vocab::Token(int id) const {
  TASTE_CHECK(id >= 0 && id < size());
  return tokens_[static_cast<size_t>(id)];
}

Status Vocab::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  for (const auto& t : tokens_) out << t << "\n";
  return out.good() ? Status::OK() : Status::IOError("write failed: " + path);
}

Result<Vocab> Vocab::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  Vocab v;
  std::string line;
  int i = 0;
  while (std::getline(in, line)) {
    if (i < kNumSpecialTokens) {
      if (line != kSpecialTokens[i]) {
        return Status::Invalid("vocab file missing special token prefix");
      }
    } else {
      v.AddToken(line);
    }
    ++i;
  }
  if (i < kNumSpecialTokens) {
    return Status::Invalid("vocab file too short");
  }
  return v;
}

}  // namespace taste::text
