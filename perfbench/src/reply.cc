#include "reply.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }
  bool EatLiteral(std::string_view literal) {
    SkipSpace();
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }
  bool Number(double* out) {
    SkipSpace();
    // strtod needs a terminated buffer; numbers are short.
    char buffer[64];
    std::size_t n = 0;
    while (pos_ + n < text_.size() && n + 1 < sizeof(buffer) &&
           std::strchr("+-.0123456789eEinfaINFA", text_[pos_ + n]) !=
               nullptr) {
      buffer[n] = text_[pos_ + n];
      ++n;
    }
    if (n == 0) return false;
    buffer[n] = '\0';
    char* end = nullptr;
    *out = std::strtod(buffer, &end);
    if (end != buffer + n) return false;
    pos_ += n;
    return true;
  }
  bool Unsigned(std::uint32_t* out) {
    SkipSpace();
    std::uint64_t value = 0;
    std::size_t n = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
      if (value > 0xFFFFFFFFull) return false;
      ++pos_;
      ++n;
    }
    *out = static_cast<std::uint32_t>(value);
    return n > 0;
  }
  bool AtEnd() {
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

constexpr std::string_view kIdPrefix = "{\"id\": ";
constexpr std::string_view kCommunitiesKey = "\"communities\": ";

}  // namespace

bool ReplyId(std::string_view line, std::uint64_t* id) {
  if (line.substr(0, kIdPrefix.size()) != kIdPrefix) return false;
  std::uint64_t value = 0;
  std::size_t pos = kIdPrefix.size();
  const std::size_t start = pos;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(line[pos] - '0');
    ++pos;
  }
  *id = value;
  return pos > start;
}

bool IsErrorReply(std::string_view line, std::string* kind) {
  if (line.find("\"error\": ") == std::string_view::npos) return false;
  constexpr std::string_view kKind = "\"kind\": \"";
  const std::size_t at = line.find(kKind);
  kind->clear();
  if (at != std::string_view::npos) {
    const std::size_t begin = at + kKind.size();
    const std::size_t end = line.find('"', begin);
    if (end != std::string_view::npos) {
      kind->assign(line.substr(begin, end - begin));
    }
  }
  return true;
}

std::string_view CommunitiesText(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  const std::size_t at = line.find(kCommunitiesKey);
  if (at == std::string_view::npos || line.empty() || line.back() != '}') {
    return {};
  }
  const std::size_t begin = at + kCommunitiesKey.size();
  return line.substr(begin, line.size() - 1 - begin);
}

bool ParseCommunities(std::string_view text, std::vector<Community>* out,
                      std::string* error) {
  out->clear();
  Cursor cur(text);
  if (!cur.Eat('[')) {
    *error = "communities: expected '['";
    return false;
  }
  if (cur.Eat(']')) {
    if (!cur.AtEnd()) {
      *error = "communities: trailing bytes";
      return false;
    }
    return true;
  }
  do {
    Community c;
    if (!cur.Eat('{') || !cur.EatLiteral("\"influence\":") ||
        !cur.Number(&c.influence) || !cur.Eat(',') ||
        !cur.EatLiteral("\"members\":") || !cur.Eat('[')) {
      *error = "communities: malformed community header";
      return false;
    }
    if (!cur.Eat(']')) {
      do {
        std::uint32_t v = 0;
        if (!cur.Unsigned(&v)) {
          *error = "communities: malformed member id";
          return false;
        }
        c.members.push_back(v);
      } while (cur.Eat(','));
      if (!cur.Eat(']')) {
        *error = "communities: expected ']' after members";
        return false;
      }
    }
    if (!cur.Eat('}')) {
      *error = "communities: expected '}'";
      return false;
    }
    out->push_back(std::move(c));
  } while (cur.Eat(','));
  if (!cur.Eat(']') || !cur.AtEnd()) {
    *error = "communities: expected closing ']'";
    return false;
  }
  return true;
}

}  // namespace perfbench
