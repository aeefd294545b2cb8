// Strict flag parsing shared by the command-line tools.
//
// strtoul alone would quietly read "74z1" as 74 and clamp overflow to
// ULLONG_MAX — an operator typo that binds the wrong port or sizes the
// cache wrongly deserves an error, not a surprise. One definition here
// instead of per-tool variants that drift apart.

#ifndef TICL_TOOLS_CLI_PARSE_H_
#define TICL_TOOLS_CLI_PARSE_H_

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace ticl::tools {

/// Strict decimal parse: the whole token must be digits (no sign, no
/// whitespace, no trailing junk), must not overflow, and must fit under
/// `max`.
inline bool ParseUnsigned(const std::string& value, unsigned long long max,
                          unsigned long long* out) {
  if (value.empty() || value[0] < '0' || value[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size()) return false;
  if (parsed > max) return false;
  *out = parsed;
  return true;
}

/// Strict floating-point parse: the whole token must be consumed.
/// Range/sanity checks (e.g. epsilon in [0, 1)) stay with the caller —
/// they are flag semantics, not syntax.
inline bool ParseDouble(const std::string& value, double* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size()) return false;
  *out = parsed;
  return true;
}

/// Walks argv for a tool's flag loop. Each Take* call consumes the current
/// flag's value and parses it strictly; on failure it leaves the tools'
/// shared error text in *error ("missing value for --x", "invalid --x: v"
/// or "--x must be a positive integer") and returns false. The target is
/// written only on success.
class ArgReader {
 public:
  ArgReader(int argc, char** argv, std::string* error)
      : argc_(argc), argv_(argv), error_(error) {}

  /// Moves to the next argument; false once argv is exhausted.
  bool Next() {
    if (++index_ >= argc_) return false;
    arg_ = argv_[index_];
    return true;
  }

  /// The current argument (the flag being parsed).
  const std::string& arg() const { return arg_; }

  bool Take(std::string* out) {
    if (index_ + 1 >= argc_) {
      *error_ = "missing value for " + arg_;
      return false;
    }
    *out = argv_[++index_];
    return true;
  }

  /// For repeatable flags: appends each occurrence's value.
  bool TakeAppend(std::vector<std::string>* out) {
    std::string value;
    if (!Take(&value)) return false;
    out->push_back(std::move(value));
    return true;
  }

  template <typename T>
  bool TakeUnsigned(T* out,
                    unsigned long long max = std::numeric_limits<T>::max()) {
    std::string value;
    unsigned long long number = 0;
    if (!Take(&value)) return false;
    if (!ParseUnsigned(value, max, &number)) return Invalid(value);
    *out = static_cast<T>(number);
    return true;
  }

  template <typename T>
  bool TakePositive(T* out) {
    std::string value;
    unsigned long long number = 0;
    if (!Take(&value)) return false;
    if (!ParseUnsigned(value, std::numeric_limits<T>::max(), &number) ||
        number == 0) {
      *error_ = arg_ + " must be a positive integer";
      return false;
    }
    *out = static_cast<T>(number);
    return true;
  }

  bool TakeDouble(double* out) {
    std::string value;
    if (!Take(&value)) return false;
    return ParseDouble(value, out) || Invalid(value);
  }

  /// The fall-through for a flag no branch recognised; always false.
  bool Unknown() {
    *error_ = "unknown argument: " + arg_;
    return false;
  }

  /// Rejects `value` for the current flag; always false.
  bool Invalid(const std::string& value) {
    *error_ = "invalid " + arg_ + ": " + value;
    return false;
  }

 private:
  int argc_;
  char** argv_;
  std::string* error_;
  int index_ = 0;
  std::string arg_;
};

}  // namespace ticl::tools

#endif  // TICL_TOOLS_CLI_PARSE_H_
