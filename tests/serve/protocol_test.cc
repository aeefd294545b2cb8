// The wire protocol is the trust boundary of the network front end: a
// TCP listener cannot assume well-formed input the way the batch pipe
// could. These tests are deliberately table-driven — every class of
// malformed line the parser must reject lives in one place, and adding a
// new attack is one row.

#include "serve/protocol.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregation.h"
#include "core/community.h"
#include "core/result.h"

namespace ticl {
namespace {

// -- Well-formed lines ------------------------------------------------------

TEST(ParseQueryLineTest, FullQuery) {
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(ParseQueryLine(
      R"({"id": "q1", "k": 4, "r": 5, "s": 20, "f": "avg", "non_overlapping": true})",
      7, &query, &id_json, &error))
      << error;
  EXPECT_EQ(id_json, "\"q1\"");  // raw token: quotes preserved
  EXPECT_EQ(query.k, 4u);
  EXPECT_EQ(query.r, 5u);
  EXPECT_EQ(query.size_limit, 20u);
  EXPECT_TRUE(query.non_overlapping);
  EXPECT_EQ(query.aggregation.kind, Aggregation::kAvg);
}

TEST(ParseQueryLineTest, DefaultsWhenFieldsAbsent) {
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(ParseQueryLine(R"({"k": 2})", 3, &query, &id_json, &error));
  EXPECT_EQ(id_json, "3");  // synthesized from the line number
  EXPECT_EQ(query.k, 2u);
  EXPECT_EQ(query.r, 1u);
  EXPECT_EQ(query.size_limit, 0u);
  EXPECT_FALSE(query.non_overlapping);
  EXPECT_EQ(query.aggregation.kind, Aggregation::kSum);
}

TEST(ParseQueryLineTest, NumericAndBoolIds) {
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(ParseQueryLine(R"({"id": 42, "k": 2})", 1, &query, &id_json,
                             &error));
  EXPECT_EQ(id_json, "42");
  ASSERT_TRUE(ParseQueryLine(R"({"id": -3.5, "k": 2})", 1, &query, &id_json,
                             &error));
  EXPECT_EQ(id_json, "-3.5");
}

TEST(ParseQueryLineTest, CompositeOrNullIdSynthesized) {
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(ParseQueryLine(R"({"id": [1, 2], "k": 2})", 9, &query,
                             &id_json, &error));
  EXPECT_EQ(id_json, "9");
  ASSERT_TRUE(ParseQueryLine(R"({"id": null, "k": 2})", 11, &query, &id_json,
                             &error));
  EXPECT_EQ(id_json, "11");
}

TEST(ParseQueryLineTest, UnknownFieldsIgnoredEvenComposite) {
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(ParseQueryLine(
      R"({"k": 3, "future_field": {"nested": [1, "a}b", {}]}, "r": 2})", 1,
      &query, &id_json, &error))
      << error;
  EXPECT_EQ(query.k, 3u);
  EXPECT_EQ(query.r, 2u);
}

TEST(ParseQueryLineTest, SumSurplusTakesAlpha) {
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(ParseQueryLine(R"({"f": "sum-surplus", "alpha": 0.5, "k": 2})",
                             1, &query, &id_json, &error));
  EXPECT_EQ(query.aggregation.kind, Aggregation::kSumSurplus);
  EXPECT_DOUBLE_EQ(query.aggregation.alpha, 0.5);
}

TEST(ParseQueryLineTest, UnicodeEscapeInString) {
  // The f value spells its leading 's' as a backslash-u escape (0x73);
  // escapes must be resolved before the aggregation lookup.
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(ParseQueryLine("{\"f\": \"\\u0073um\", \"k\": 2}", 1, &query,
                             &id_json, &error))
      << error;
  EXPECT_EQ(query.aggregation.kind, Aggregation::kSum);
}

TEST(ParseQueryLineTest, IntegralFloatAccepted) {
  // JSON has one number type; 4.0 is an integer by value.
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(
      ParseQueryLine(R"({"k": 4.0, "r": 2e1})", 1, &query, &id_json, &error))
      << error;
  EXPECT_EQ(query.k, 4u);
  EXPECT_EQ(query.r, 20u);
}

// -- Malformed lines (the hardening table) ----------------------------------

struct MalformedCase {
  const char* name;
  const char* line;
  /// Substring expected in the parse error.
  const char* error_fragment;
};

class MalformedLineTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedLineTest, Rejected) {
  const MalformedCase& c = GetParam();
  Query query;
  std::string id_json;
  std::string error;
  EXPECT_FALSE(ParseQueryLine(c.line, 5, &query, &id_json, &error))
      << c.name << ": accepted " << c.line;
  EXPECT_NE(error.find(c.error_fragment), std::string::npos)
      << c.name << ": error was \"" << error << "\", expected fragment \""
      << c.error_fragment << "\"";
  EXPECT_FALSE(id_json.empty()) << c.name;  // error replies need an id
}

INSTANTIATE_TEST_SUITE_P(
    Table, MalformedLineTest,
    ::testing::Values(
        MalformedCase{"empty", "", "expected '{'"},
        MalformedCase{"not_an_object", R"([1, 2, 3])", "expected '{'"},
        MalformedCase{"bare_garbage", "hello", "expected '{'"},
        MalformedCase{"unterminated_object", R"({"k": 2)", "expected ','"},
        MalformedCase{"unterminated_string", R"({"f": "sum)",
                      "unterminated string"},
        MalformedCase{"unterminated_string_id", R"({"id": "q1)",
                      "unterminated string"},
        MalformedCase{"unterminated_escape", "{\"f\": \"sum\\",
                      "unterminated string"},
        MalformedCase{"control_char_in_string", "{\"f\": \"su\tm\"}",
                      "unescaped control character"},
        MalformedCase{"invalid_escape", R"({"f": "\q"})", "invalid escape"},
        MalformedCase{"truncated_unicode_escape", R"({"f": "\u00"})",
                      "escape"},
        MalformedCase{"lone_surrogate", R"({"f": "\ud800"})",
                      "lone surrogate"},
        MalformedCase{"duplicate_key", R"({"k": 2, "k": 3})",
                      "duplicate key \"k\""},
        MalformedCase{"duplicate_id", R"({"id": 1, "id": 2, "k": 2})",
                      "duplicate key \"id\""},
        MalformedCase{"duplicate_unknown_key", R"({"x": 1, "x": 1})",
                      "duplicate key \"x\""},
        MalformedCase{"k_string", R"({"k": "four"})", "\"k\" must be a number"},
        MalformedCase{"k_quoted_number", R"({"k": "4"})",
                      "\"k\" must be a number"},
        MalformedCase{"k_bool", R"({"k": true})", "\"k\" must be a number"},
        MalformedCase{"k_fractional", R"({"k": 4.5})",
                      "integer in [0, 4294967295]"},
        MalformedCase{"k_negative", R"({"k": -1})",
                      "integer in [0, 4294967295]"},
        MalformedCase{"k_too_large", R"({"k": 4294967296})",
                      "integer in [0, 4294967295]"},
        MalformedCase{"r_huge_exponent", R"({"r": 1e300})",
                      "integer in [0, 4294967295]"},
        MalformedCase{"s_composite", R"({"s": [20]})", "must be a number"},
        MalformedCase{"non_overlapping_string",
                      R"({"non_overlapping": "yes"})",
                      "\"non_overlapping\" must be true or false"},
        MalformedCase{"alpha_string", R"({"f": "sum-surplus", "alpha": "a"})",
                      "\"alpha\" must be a finite number"},
        MalformedCase{"f_number", R"({"f": 7})", "\"f\" must be a string"},
        MalformedCase{"unknown_aggregation", R"({"f": "median"})",
                      "unknown aggregation: median"},
        MalformedCase{"missing_colon", R"({"k" 2})", "expected ':'"},
        MalformedCase{"missing_comma", R"({"k": 2 "r": 3})",
                      "expected ',' or '}'"},
        MalformedCase{"unquoted_key", R"({k: 2})", "expected a quoted key"},
        MalformedCase{"trailing_garbage", R"({"k": 2} tail)",
                      "trailing garbage"},
        MalformedCase{"second_object", R"({"k": 2}{"k": 3})",
                      "trailing garbage"},
        MalformedCase{"leading_zero_number", R"({"k": 007})",
                      "expected ',' or '}'"},
        MalformedCase{"hex_number", R"({"k": 0x10})", "expected ',' or '}'"},
        MalformedCase{"infinity_number", R"({"k": inf})", "malformed value"},
        MalformedCase{"mismatched_brackets", R"({"x": [1, 2}})",
                      "mismatched brackets"},
        MalformedCase{"unterminated_composite", R"({"x": [1, 2)",
                      "unterminated array or object"}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      return info.param.name;
    });

TEST(ParseQueryLineTest, OversizedLineRejected) {
  std::string line = R"({"id": ")" + std::string(kMaxRequestLineBytes, 'x') +
                     R"(", "k": 2})";
  Query query;
  std::string id_json;
  std::string error;
  EXPECT_FALSE(ParseQueryLine(line, 2, &query, &id_json, &error));
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
  EXPECT_EQ(id_json, "2");
}

TEST(ParseQueryLineTest, AdminLineRejectedOnBatchFrontEnd) {
  Query query;
  std::string id_json;
  std::string error;
  EXPECT_FALSE(ParseQueryLine(R"({"id": 1, "admin": "stats"})", 1, &query,
                              &id_json, &error));
  EXPECT_NE(error.find("admin commands are not supported"),
            std::string::npos)
      << error;
  EXPECT_EQ(id_json, "1");
}

// -- Admin requests ---------------------------------------------------------

TEST(ParseRequestLineTest, AdminApplyDelta) {
  ParsedRequest request;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"({"id": "a1", "admin": "apply_delta", "path": "g.d1.snap"})", 1,
      &request, &error))
      << error;
  EXPECT_EQ(request.kind, ParsedRequest::Kind::kAdmin);
  EXPECT_EQ(request.admin_verb, "apply_delta");
  EXPECT_EQ(request.admin_path, "g.d1.snap");
  EXPECT_EQ(request.id_json, "\"a1\"");
}

TEST(ParseRequestLineTest, AdminVerbsWithoutPath) {
  for (const char* verb : {"stats", "drain", "ping"}) {
    ParsedRequest request;
    std::string error;
    const std::string line =
        std::string(R"({"admin": ")") + verb + R"("})";
    ASSERT_TRUE(ParseRequestLine(line, 1, &request, &error)) << error;
    EXPECT_EQ(request.kind, ParsedRequest::Kind::kAdmin);
    EXPECT_EQ(request.admin_verb, verb);
  }
}

TEST(ParseRequestLineTest, AdminErrors) {
  ParsedRequest request;
  std::string error;
  EXPECT_FALSE(
      ParseRequestLine(R"({"admin": "reboot"})", 1, &request, &error));
  EXPECT_NE(error.find("unknown admin command"), std::string::npos) << error;

  EXPECT_FALSE(
      ParseRequestLine(R"({"admin": "apply_delta"})", 1, &request, &error));
  EXPECT_NE(error.find("path"), std::string::npos) << error;

  EXPECT_FALSE(ParseRequestLine(R"({"admin": 7})", 1, &request, &error));
  EXPECT_NE(error.find("\"admin\" must be a string"), std::string::npos)
      << error;
}

TEST(ParseRequestLineTest, QueryLineParsesAsQueryKind) {
  ParsedRequest request;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(R"({"id": 1, "k": 3, "r": 2})", 1, &request,
                               &error));
  EXPECT_EQ(request.kind, ParsedRequest::Kind::kQuery);
  EXPECT_EQ(request.query.k, 3u);
}

// -- Formatting -------------------------------------------------------------

SearchResult TwoCommunityResult() {
  SearchResult result;
  Community a;
  a.influence = 42.0;
  a.members = {1, 2, 3};
  Community b;
  b.influence = 0.125;
  b.members = {7};
  result.communities = {a, b};
  result.stats.elapsed_seconds = 0.012345;
  return result;
}

TEST(FormatTest, ResultLineExactBytes) {
  Query query;
  query.k = 4;
  query.r = 5;
  const std::string line =
      FormatResultLine("\"q1\"", query, TwoCommunityResult(), false);
  EXPECT_EQ(line,
            "{\"id\": \"q1\", \"query\": \"" + QueryToString(query) +
                "\", \"cached\": false, \"elapsed_seconds\": 0.012345, "
            "\"communities\": [{\"influence\": 42, \"members\": [1, 2, 3]}, "
            "{\"influence\": 0.125, \"members\": [7]}]}\n");
}

TEST(FormatTest, CommunitiesJsonMatchesResultLineSuffix) {
  Query query;
  const SearchResult result = TwoCommunityResult();
  const std::string line = FormatResultLine("1", query, result, true);
  const std::string communities = FormatCommunitiesJson(result);
  const std::string suffix = "\"communities\": " + communities + "}\n";
  ASSERT_GE(line.size(), suffix.size());
  EXPECT_EQ(line.substr(line.size() - suffix.size()), suffix);
}

TEST(FormatTest, EmptyResult) {
  Query query;
  const SearchResult empty;
  EXPECT_EQ(FormatCommunitiesJson(empty), "[]");
}

// The reply writers pass an answer's preformatted bytes; the line must be
// byte-identical to formatting the result itself.
TEST(FormatTest, PreformattedBodyMatchesResultForm) {
  Query query;
  query.k = 4;
  query.r = 5;
  query.aggregation = AggregationSpec::Avg();
  SearchResult empty;
  empty.stats.elapsed_seconds = 0.5;
  for (const SearchResult& result : {TwoCommunityResult(), empty}) {
    for (const bool cached : {false, true}) {
      EXPECT_EQ(FormatResultLine("\"q1\"", query,
                                 result.stats.elapsed_seconds, cached,
                                 FormatCommunitiesJson(result)),
                FormatResultLine("\"q1\"", query, result, cached));
    }
  }
  EXPECT_EQ(FormatResultLine("\"q1\"", query, 0.5, true, "[]"),
            "{\"id\": \"q1\", \"query\": \"" + QueryToString(query) +
                "\", \"cached\": true, \"elapsed_seconds\": 0.500000, "
                "\"communities\": []}\n");
}

TEST(FormatTest, ErrorLineEscapesMessage) {
  const std::string line =
      FormatErrorLine("7", "bad \"value\"\nline two", kErrorKindParse);
  EXPECT_EQ(line,
            "{\"id\": 7, \"error\": \"bad \\\"value\\\"\\nline two\", "
            "\"kind\": \"parse\"}\n");
}

TEST(FormatTest, JsonEscape) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
}

// The parser accepts what the formatter emits — a round-trip guard for
// the shared-protocol invariant.
TEST(FormatTest, ErrorLineReparses) {
  const std::string line = FormatErrorLine("\"id with spaces\"",
                                           "message", kErrorKindInvalid);
  ParsedRequest request;
  std::string error;
  // Error lines are replies, not requests, but they are flat JSON objects
  // with string values — the scanner must not choke on its own output.
  // (They parse as a query with all fields defaulted: "error"/"kind" are
  // unknown request fields.)
  ASSERT_TRUE(ParseRequestLine(line.substr(0, line.size() - 1), 1, &request,
                               &error))
      << error;
  EXPECT_EQ(request.id_json, "\"id with spaces\"");
}

}  // namespace
}  // namespace ticl
