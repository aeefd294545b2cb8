// Parsing of ticl_served reply lines, written against the documented wire
// format rather than the program's own formatter.
#ifndef PERFBENCH_REPLY_H_
#define PERFBENCH_REPLY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Community {
  double influence = 0.0;
  std::vector<std::uint32_t> members;
};

/// Reads the leading {"id": N of a reply line. False when absent.
bool ReplyId(std::string_view line, std::uint64_t* id);

/// True when the line is an error reply; *kind gets its "kind" value.
bool IsErrorReply(std::string_view line, std::string* kind);

/// The "communities" array of a result line, exactly as sent (the only
/// part of a reply that must repeat byte for byte: "cached" and
/// "elapsed_seconds" differ between a solve and a hit). Empty view when
/// the line is not a result line.
std::string_view CommunitiesText(std::string_view line);

/// Parses a communities array. False with *error on malformed text.
bool ParseCommunities(std::string_view text, std::vector<Community>* out,
                      std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_REPLY_H_
