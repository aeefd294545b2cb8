#include "serve/protocol.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace ticl {

namespace {

// -- Tokenizer --------------------------------------------------------------
//
// Request lines are flat objects, but "flat" is a promise about the
// sender, not the attacker: the scanner below accepts exactly one JSON
// object per line, rejects structural damage (unterminated strings,
// missing colons, trailing garbage, duplicate keys) and records each
// value's type so the field readers can distinguish "absent" from
// "present but wrong" — the old substring scan silently defaulted both.

struct JsonValue {
  enum class Type { kString, kNumber, kBool, kNull, kComposite };
  Type type = Type::kNull;
  std::string string_value;  // decoded, kString only
  double number_value = 0.0;
  bool bool_value = false;
  /// Exact slice of the input line, usable for verbatim echo.
  std::string raw;
};

struct Field {
  std::string key;
  JsonValue value;
};

class Scanner {
 public:
  Scanner(const std::string& line, std::string* error)
      : line_(line), error_(error) {}

  bool Scan(std::vector<Field>* fields) {
    SkipSpace();
    if (!Consume('{')) return Fail("expected '{'");
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return CheckTrailing();
    }
    while (true) {
      SkipSpace();
      Field field;
      if (Peek() != '"') return Fail("expected a quoted key");
      std::string raw_unused;
      if (!ParseString(&field.key, &raw_unused)) return false;
      SkipSpace();
      if (!Consume(':')) return Fail("expected ':' after key");
      SkipSpace();
      if (!ParseValue(&field.value)) return false;
      for (const Field& prior : *fields) {
        if (prior.key == field.key) {
          return Fail("duplicate key \"" + field.key + "\"");
        }
      }
      fields->push_back(std::move(field));
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return CheckTrailing();
      }
      return Fail("expected ',' or '}'");
    }
  }

 private:
  char Peek() const { return pos_ < line_.size() ? line_[pos_] : '\0'; }

  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }

  void SkipSpace() {
    while (pos_ < line_.size() &&
           (line_[pos_] == ' ' || line_[pos_] == '\t' || line_[pos_] == '\r' ||
            line_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool Fail(const std::string& message) {
    *error_ = message;
    return false;
  }

  bool CheckTrailing() {
    SkipSpace();
    if (pos_ != line_.size()) return Fail("trailing garbage after '}'");
    return true;
  }

  static void AppendUtf8(std::uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseHex4(std::uint32_t* out) {
    if (pos_ + 4 > line_.size()) return Fail("truncated \\u escape");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = line_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  /// At the opening quote. Decodes into *out, records the raw slice
  /// (quotes included) into *raw.
  bool ParseString(std::string* out, std::string* raw) {
    const std::size_t start = pos_;
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (pos_ >= line_.size()) return Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(line_[pos_]);
      if (c == '"') {
        ++pos_;
        *raw = line_.substr(start, pos_ - start);
        return true;
      }
      if (c < 0x20) return Fail("unescaped control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= line_.size()) return Fail("unterminated string");
      const char esc = line_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!ParseHex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (pos_ + 1 >= line_.size() || line_[pos_] != '\\' ||
                line_[pos_ + 1] != 'u') {
              return Fail("lone surrogate in \\u escape");
            }
            pos_ += 2;
            std::uint32_t low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("lone surrogate in \\u escape");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("lone surrogate in \\u escape");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("invalid escape in string");
      }
    }
  }

  /// Validates the JSON number grammar before handing the slice to
  /// strtod — strtod alone accepts "inf", "0x10" and similar non-JSON.
  bool ParseNumber(JsonValue* value) {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (Peek() == '0') {
      ++pos_;
    } else if (Peek() >= '1' && Peek() <= '9') {
      while (Peek() >= '0' && Peek() <= '9') ++pos_;
    } else {
      return Fail("malformed number");
    }
    if (Peek() == '.') {
      ++pos_;
      if (!(Peek() >= '0' && Peek() <= '9')) return Fail("malformed number");
      while (Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!(Peek() >= '0' && Peek() <= '9')) return Fail("malformed number");
      while (Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    value->type = JsonValue::Type::kNumber;
    value->raw = line_.substr(start, pos_ - start);
    value->number_value = std::strtod(value->raw.c_str(), nullptr);
    return true;
  }

  bool ConsumeLiteral(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (line_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  /// Skips a nested array/object with string-aware bracket matching. The
  /// value is kept only as a raw slice — no known field takes one, but an
  /// unknown field carrying one must not desynchronize the scan.
  bool ParseComposite(JsonValue* value) {
    const std::size_t start = pos_;
    std::vector<char> stack;
    do {
      if (pos_ >= line_.size()) return Fail("unterminated array or object");
      const char c = line_[pos_];
      if (c == '[' || c == '{') {
        stack.push_back(c == '[' ? ']' : '}');
        ++pos_;
      } else if (c == ']' || c == '}') {
        if (stack.empty() || stack.back() != c) {
          return Fail("mismatched brackets");
        }
        stack.pop_back();
        ++pos_;
      } else if (c == '"') {
        std::string decoded, raw;
        if (!ParseString(&decoded, &raw)) return false;
      } else {
        ++pos_;
      }
    } while (!stack.empty());
    value->type = JsonValue::Type::kComposite;
    value->raw = line_.substr(start, pos_ - start);
    return true;
  }

  bool ParseValue(JsonValue* value) {
    const char c = Peek();
    if (c == '"') {
      value->type = JsonValue::Type::kString;
      return ParseString(&value->string_value, &value->raw);
    }
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(value);
    if (c == 't' || c == 'f') {
      const bool truth = c == 't';
      if (!ConsumeLiteral(truth ? "true" : "false")) {
        return Fail("malformed value");
      }
      value->type = JsonValue::Type::kBool;
      value->bool_value = truth;
      value->raw = truth ? "true" : "false";
      return true;
    }
    if (c == 'n') {
      if (!ConsumeLiteral("null")) return Fail("malformed value");
      value->type = JsonValue::Type::kNull;
      value->raw = "null";
      return true;
    }
    if (c == '[' || c == '{') return ParseComposite(value);
    return Fail("malformed value");
  }

  const std::string& line_;
  std::string* error_;
  std::size_t pos_ = 0;
};

// -- Field readers ----------------------------------------------------------

/// null-valued fields count as absent: {"s": null} means "no size limit",
/// matching a sender that drops the key entirely.
const JsonValue* Find(const std::vector<Field>& fields,
                      const std::string& key) {
  for (const Field& field : fields) {
    if (field.key == key) {
      return field.value.type == JsonValue::Type::kNull ? nullptr
                                                        : &field.value;
    }
  }
  return nullptr;
}

/// Optional non-negative integer field. JSON has one number type, so 4.0
/// is accepted but 4.5, -1, 1e12 and "4" are type/range errors.
bool ReadU32(const std::vector<Field>& fields, const std::string& key,
             std::uint32_t* out, std::string* error) {
  const JsonValue* value = Find(fields, key);
  if (value == nullptr) return true;
  if (value->type != JsonValue::Type::kNumber) {
    *error = "\"" + key + "\" must be a number";
    return false;
  }
  const double number = value->number_value;
  if (!(number >= 0.0) || number > 4294967295.0 ||
      number != std::floor(number)) {
    *error = "\"" + key + "\" must be an integer in [0, 4294967295]";
    return false;
  }
  *out = static_cast<std::uint32_t>(number);
  return true;
}

bool ReadFinite(const std::vector<Field>& fields, const std::string& key,
                double* out, std::string* error) {
  const JsonValue* value = Find(fields, key);
  if (value == nullptr) return true;
  if (value->type != JsonValue::Type::kNumber ||
      !std::isfinite(value->number_value)) {
    *error = "\"" + key + "\" must be a finite number";
    return false;
  }
  *out = value->number_value;
  return true;
}

bool ReadBool(const std::vector<Field>& fields, const std::string& key,
              bool* out, std::string* error) {
  const JsonValue* value = Find(fields, key);
  if (value == nullptr) return true;
  if (value->type != JsonValue::Type::kBool) {
    *error = "\"" + key + "\" must be true or false";
    return false;
  }
  *out = value->bool_value;
  return true;
}

bool ReadString(const std::vector<Field>& fields, const std::string& key,
                std::string* out, std::string* error) {
  const JsonValue* value = Find(fields, key);
  if (value == nullptr) return true;
  if (value->type != JsonValue::Type::kString) {
    *error = "\"" + key + "\" must be a string";
    return false;
  }
  *out = value->string_value;
  return true;
}

bool ParseQueryFields(const std::vector<Field>& fields, Query* query,
                      std::string* error) {
  if (!ReadU32(fields, "k", &query->k, error)) return false;
  if (!ReadU32(fields, "r", &query->r, error)) return false;
  if (!ReadU32(fields, "s", &query->size_limit, error)) return false;
  if (!ReadBool(fields, "non_overlapping", &query->non_overlapping, error)) {
    return false;
  }
  double alpha = 1.0;
  double beta = 1.0;
  if (!ReadFinite(fields, "alpha", &alpha, error)) return false;
  if (!ReadFinite(fields, "beta", &beta, error)) return false;
  std::string f = "sum";
  if (!ReadString(fields, "f", &f, error)) return false;
  if (!ParseAggregation(f, alpha, beta, &query->aggregation)) {
    *error = "unknown aggregation: " + f;
    return false;
  }
  return true;
}

bool ParseAdminFields(const std::vector<Field>& fields,
                      ParsedRequest* request, std::string* error) {
  const JsonValue* verb = Find(fields, "admin");
  if (verb->type != JsonValue::Type::kString) {
    *error = "\"admin\" must be a string";
    return false;
  }
  request->kind = ParsedRequest::Kind::kAdmin;
  request->admin_verb = verb->string_value;
  if (request->admin_verb == "apply_delta") {
    if (!ReadString(fields, "path", &request->admin_path, error)) return false;
    if (request->admin_path.empty()) {
      *error = "admin apply_delta needs a non-empty \"path\"";
      return false;
    }
    return true;
  }
  if (request->admin_verb == "stats" || request->admin_verb == "drain" ||
      request->admin_verb == "ping") {
    return true;
  }
  *error = "unknown admin command \"" + request->admin_verb +
           "\" (expected apply_delta, stats, drain or ping)";
  return false;
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char raw : text) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(raw);
        }
    }
  }
  return out;
}

bool ParseRequestLine(const std::string& line, std::size_t line_number,
                      ParsedRequest* request, std::string* error) {
  *request = ParsedRequest{};
  request->id_json = std::to_string(line_number);
  if (line.size() > kMaxRequestLineBytes) {
    *error = "line exceeds " + std::to_string(kMaxRequestLineBytes) +
             " bytes";
    return false;
  }
  std::vector<Field> fields;
  Scanner scanner(line, error);
  if (!scanner.Scan(&fields)) return false;

  // Echoing a composite id back would be legal JSON, but the id exists to
  // be a cheap correlation token; keep the historical contract (scalar or
  // synthesized line number).
  for (const Field& field : fields) {
    if (field.key != "id") continue;
    if (field.value.type != JsonValue::Type::kComposite &&
        field.value.type != JsonValue::Type::kNull) {
      request->id_json = field.value.raw;
    }
    break;
  }

  if (Find(fields, "admin") != nullptr) {
    return ParseAdminFields(fields, request, error);
  }
  request->kind = ParsedRequest::Kind::kQuery;
  return ParseQueryFields(fields, &request->query, error);
}

bool ParseQueryLine(const std::string& line, std::size_t line_number,
                    Query* query, std::string* id_json, std::string* error) {
  ParsedRequest request;
  const bool ok = ParseRequestLine(line, line_number, &request, error);
  *id_json = request.id_json;
  if (!ok) return false;
  if (request.kind != ParsedRequest::Kind::kQuery) {
    *error = "admin commands are not supported on this front end";
    return false;
  }
  *query = request.query;
  return true;
}

std::string FormatCommunitiesJson(const SearchResult& result) {
  std::string out = "[";
  char buffer[64];
  for (std::size_t i = 0; i < result.communities.size(); ++i) {
    const Community& c = result.communities[i];
    if (i != 0) out += ", ";
    std::snprintf(buffer, sizeof(buffer), "{\"influence\": %.17g, ",
                  c.influence);
    out += buffer;
    out += "\"members\": [";
    for (std::size_t j = 0; j < c.members.size(); ++j) {
      if (j != 0) out += ", ";
      std::snprintf(buffer, sizeof(buffer), "%u", c.members[j]);
      out += buffer;
    }
    out += "]}";
  }
  out += "]";
  return out;
}

std::string FormatResultLine(const std::string& id_json, const Query& query,
                             double elapsed_seconds, bool cached,
                             std::string_view communities_json) {
  std::string out = "{\"id\": " + id_json + ", \"query\": \"" +
                    JsonEscape(QueryToString(query)) + "\", \"cached\": " +
                    (cached ? "true" : "false");
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), ", \"elapsed_seconds\": %.6f, ",
                elapsed_seconds);
  out += buffer;
  out += "\"communities\": ";
  out.reserve(out.size() + communities_json.size() + 2);
  out += communities_json;
  out += "}\n";
  return out;
}

std::string FormatResultLine(const std::string& id_json, const Query& query,
                             const SearchResult& result, bool cached) {
  return FormatResultLine(id_json, query, result.stats.elapsed_seconds,
                          cached, FormatCommunitiesJson(result));
}

std::string FormatErrorLine(const std::string& id_json,
                            const std::string& message,
                            const std::string& kind) {
  return "{\"id\": " + id_json + ", \"error\": \"" + JsonEscape(message) +
         "\", \"kind\": \"" + kind + "\"}\n";
}

}  // namespace ticl
