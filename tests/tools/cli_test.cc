// Contract tests for the command-line tools: the real ticl_query,
// ticl_serve and ticl_served binaries are spawned on a small stand-in
// snapshot and held to their documented exit codes, usage output and
// answers. ticl_serve's reply lines must carry exactly the communities
// ticl_query prints for the same query and snapshot, and ticl_served must
// answer over TCP and drain cleanly on SIGTERM.
//
// The binary paths are compiled in (TICL_QUERY_BIN, TICL_SERVE_BIN,
// TICL_SERVED_BIN) from CMake's $<TARGET_FILE:...>.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;

struct RunResult {
  int exit_code = -1;  // 128 + signal number when killed by a signal
  std::string out;
  std::string err;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

int ExitCode(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

/// Starts `args` with stdin, stdout and stderr redirected to files.
/// Returns the child's pid, or -1 if it could not be spawned.
pid_t Spawn(const std::vector<std::string>& args, const std::string& in_path,
            const std::string& out_path, const std::string& err_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, in_path.c_str(), O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

/// Waits up to `timeout` for `pid`; kills it (and reports -1) past that.
int WaitFor(pid_t pid, std::chrono::seconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  int status = 0;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return ExitCode(status);
}

class ToolsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "ticl_cli_test.XXXXXX")
            .string();
    if (::mkdtemp(pattern.data()) == nullptr) return;
    dir_ = new std::string(pattern);
    base_ = new std::string(Path("email.snap"));
    delta_ = new std::string(Path("email.d1.snap"));
    // Edge 0-2999 exists in standin:email seed 1; 2998-2999 does not.
    WriteFile(Path("edits.txt"), "+ 2998 2999\n- 0 2999\nw 93 2.5\n");
    ready_ = Run({TICL_QUERY_BIN, "--generate", "standin:email", "--seed",
                  "1", "--save-snapshot", *base_})
                     .exit_code == 0 &&
             Run({TICL_QUERY_BIN, "--snapshot", *base_, "--apply-delta",
                  Path("edits.txt"), "--save-snapshot", *delta_})
                     .exit_code == 0;
  }

  static void TearDownTestSuite() {
    if (dir_ != nullptr) std::filesystem::remove_all(*dir_);
    delete dir_;
    delete base_;
    delete delta_;
    dir_ = base_ = delta_ = nullptr;
  }

  void SetUp() override {
    ASSERT_TRUE(ready_) << "could not prepare the stand-in snapshots";
  }

  static std::string Path(const std::string& name) {
    return *dir_ + "/" + name;
  }

  /// Runs a tool to completion, feeding `input` on stdin.
  static RunResult Run(const std::vector<std::string>& args,
                       const std::string& input = "") {
    WriteFile(Path("stdin"), input);
    RunResult result;
    const pid_t pid =
        Spawn(args, Path("stdin"), Path("stdout"), Path("stderr"));
    if (pid < 0) return result;
    result.exit_code = WaitFor(pid, std::chrono::seconds(300));
    result.out = ReadFile(Path("stdout"));
    result.err = ReadFile(Path("stderr"));
    return result;
  }

  static std::string* dir_;
  static std::string* base_;   // standin:email seed 1, weighted
  static std::string* delta_;  // child delta snapshot of base_
  static bool ready_;
};

std::string* ToolsTest::dir_ = nullptr;
std::string* ToolsTest::base_ = nullptr;
std::string* ToolsTest::delta_ = nullptr;
bool ToolsTest::ready_ = false;

/// The (influence, members) pairs in a ticl_query --output json document
/// or one ticl_serve reply line, in order; both print influences with
/// %.17g, so the texts compare exactly. Spaces are dropped from member
/// lists so the two layouts compare equal.
std::vector<std::pair<std::string, std::string>> Communities(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  const std::string influence_key = "\"influence\": ";
  const std::string members_key = "\"members\": [";
  std::size_t at = 0;
  while ((at = text.find(influence_key, at)) != std::string::npos) {
    at += influence_key.size();
    const std::size_t comma = text.find(',', at);
    const std::size_t open = text.find(members_key, comma);
    const std::size_t close = text.find(']', open);
    if (comma == std::string::npos || open == std::string::npos ||
        close == std::string::npos) {
      break;
    }
    std::string members;
    for (std::size_t i = open + members_key.size(); i < close; ++i) {
      if (text[i] != ' ') members.push_back(text[i]);
    }
    out.emplace_back(text.substr(at, comma - at), members);
    at = close;
  }
  return out;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// -- Usage and exit codes ----------------------------------------------------

TEST_F(ToolsTest, HelpPrintsUsageAndExitsZero) {
  for (const char* tool : {TICL_QUERY_BIN, TICL_SERVE_BIN, TICL_SERVED_BIN}) {
    const RunResult run = Run({tool, "--help"});
    EXPECT_EQ(run.exit_code, 0) << tool;
    EXPECT_EQ(run.out.rfind("usage: ", 0), 0u) << tool << ": " << run.out;
  }
}

TEST_F(ToolsTest, UsageErrorsExitOne) {
  const std::string snap = *base_;
  const std::vector<std::vector<std::string>> cases = {
      {TICL_QUERY_BIN, "--bogus"},
      {TICL_SERVE_BIN, "--snapshot", snap, "--bogus"},
      {TICL_SERVED_BIN, "--snapshot", snap, "--bogus"},
      {TICL_QUERY_BIN, "--snapshot", snap, "--threads", "7x"},
      {TICL_SERVE_BIN, "--snapshot", snap, "--threads", "7x"},
      {TICL_SERVED_BIN, "--snapshot", snap, "--threads", "7x"},
      {TICL_SERVED_BIN, "--snapshot", snap, "--port", "70000"},
      {TICL_SERVED_BIN, "--snapshot", snap, "--max-in-flight", "0"},
      {TICL_SERVE_BIN, "--snapshot", snap, "--repeat", "0"},
      {TICL_SERVE_BIN, "--threads", "2"},
      {TICL_SERVED_BIN, "--threads", "2"},
      {TICL_SERVE_BIN, "--snapshot"},
      {TICL_SERVE_BIN, "--snapshot", snap, "--cache-ttl-ms", "5"},
      {TICL_SERVED_BIN, "--snapshot", snap, "--cache-ttl-ms", "5"},
      {TICL_QUERY_BIN, "--snapshot", snap, "--snapshot-format", "1"},
      {TICL_QUERY_BIN, "--snapshot", snap, "--output", "jsn"},
      {TICL_QUERY_BIN, "--snapshot", snap, "--solver", "naive", "--s", "5"},
      {TICL_QUERY_BIN, "--snapshot", snap, "--solver", "min-peel", "--f",
       "sum"},
      {TICL_QUERY_BIN, "--snapshot", snap, "--solver", "exact", "--k", "2"},
  };
  for (const std::vector<std::string>& args : cases) {
    const RunResult run = Run(args);
    std::string line;
    for (const std::string& arg : args) line += arg + " ";
    EXPECT_EQ(run.exit_code, 1) << line << "\n" << run.err;
    EXPECT_EQ(run.err.rfind("error: ", 0), 0u) << line << "\n" << run.err;
  }
}

TEST_F(ToolsTest, FlagErrorsNameTheFlag) {
  EXPECT_NE(Run({TICL_SERVE_BIN, "--bogus"}).err.find(
                "unknown argument: --bogus"),
            std::string::npos);
  EXPECT_NE(Run({TICL_SERVED_BIN, "--threads", "7x"})
                .err.find("invalid --threads: 7x"),
            std::string::npos);
  EXPECT_NE(Run({TICL_QUERY_BIN, "--k"}).err.find("missing value for --k"),
            std::string::npos);
  EXPECT_NE(Run({TICL_SERVE_BIN, "--repeat", "0"})
                .err.find("--repeat must be a positive integer"),
            std::string::npos);
  EXPECT_NE(Run({TICL_SERVE_BIN, "--threads", "2"})
                .err.find("--snapshot is required"),
            std::string::npos);
  EXPECT_NE(Run({TICL_SERVED_BIN, "--cache-ttl-ms", "5"})
                .err.find("unknown argument: --cache-ttl-ms"),
            std::string::npos);
  EXPECT_NE(Run({TICL_QUERY_BIN, "--snapshot-format", "1"})
                .err.find("unknown argument: --snapshot-format"),
            std::string::npos);
  EXPECT_NE(Run({TICL_QUERY_BIN, "--output", "jsn"})
                .err.find("invalid --output: jsn"),
            std::string::npos);
  EXPECT_NE(Run({TICL_QUERY_BIN, "--snapshot", *base_, "--solver",
                 "max-components", "--f", "max", "--s", "9"})
                .err.find("--solver max-components needs an unconstrained "
                          "query (no --s) with --f max"),
            std::string::npos);
  EXPECT_NE(Run({TICL_QUERY_BIN, "--snapshot", *base_, "--solver", "exact",
                 "--k", "2"})
                .err.find("--solver exact would enumerate more than "
                          "100000000 subsets"),
            std::string::npos);
  // The serving tools always dispatch by the hardness map and always
  // invalidate partially: they have no solver or kill-switch flags.
  for (const char* tool : {TICL_SERVE_BIN, TICL_SERVED_BIN}) {
    for (const std::vector<std::string>& flag :
         std::vector<std::vector<std::string>>{{"--solver", "naive"},
                                               {"--epsilon", "0.5"},
                                               {"--no-partial-invalidation"}}) {
      std::vector<std::string> args = {tool, "--snapshot", *base_};
      args.insert(args.end(), flag.begin(), flag.end());
      const RunResult run = Run(args);
      EXPECT_EQ(run.exit_code, 1) << tool << " " << flag[0] << "\n" << run.err;
      EXPECT_NE(run.err.find("unknown argument: " + flag[0]),
                std::string::npos)
          << tool << " " << flag[0] << "\n" << run.err;
    }
  }
}

TEST_F(ToolsTest, BadGenerateSpecsExitTwo) {
  for (const char* spec :
       {"standin:email@nan", "standin:email@inf", "standin:email@0.05x",
        "standin:email@-1", "standin:email@", "chung-lu:300,6,2.5junk",
        "chung-lu:-5,6,2.5", "chung-lu:300,6,3.5", "chung-lu:300,0,2.5",
        "chung-lu:300,6", "chung-lu:300,6,2.5,"}) {
    const RunResult run = Run({TICL_QUERY_BIN, "--generate", spec});
    EXPECT_EQ(run.exit_code, 2) << spec << "\n" << run.err;
    EXPECT_EQ(run.err.rfind("error: ", 0), 0u) << spec << "\n" << run.err;
  }
  EXPECT_EQ(Run({TICL_QUERY_BIN, "--generate", "standin:email@0.05", "--k",
                 "2"})
                .exit_code,
            0);
  EXPECT_EQ(Run({TICL_QUERY_BIN, "--generate", "chung-lu:300,6,2.5", "--k",
                 "2"})
                .exit_code,
            0);
}

TEST_F(ToolsTest, MissingSnapshotFileExitsTwo) {
  const std::string missing = Path("missing.snap");
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {TICL_QUERY_BIN, "--snapshot", missing, "--k", "2"},
           {TICL_SERVE_BIN, "--snapshot", missing},
           {TICL_SERVED_BIN, "--snapshot", missing, "--port", "0"}}) {
    const RunResult run = Run(args);
    EXPECT_EQ(run.exit_code, 2) << args[0] << "\n" << run.err;
  }
}

// -- Answers -----------------------------------------------------------------

struct QueryCase {
  std::string line;                // ticl_serve input
  std::vector<std::string> flags;  // the same query for ticl_query
};

const std::vector<QueryCase>& QueryCases() {
  static const std::vector<QueryCase> cases = {
      {R"({"id": 1, "k": 4, "r": 3, "f": "sum"})",
       {"--k", "4", "--r", "3", "--f", "sum"}},
      {R"({"id": 2, "k": 4, "r": 3, "f": "min"})",
       {"--k", "4", "--r", "3", "--f", "min"}},
      {R"({"id": 3, "k": 6, "r": 3, "f": "max"})",
       {"--k", "6", "--r", "3", "--f", "max"}},
      {R"({"id": 4, "k": 4, "r": 3, "s": 20, "f": "avg"})",
       {"--k", "4", "--r", "3", "--s", "20", "--f", "avg"}},
      {R"({"id": 5, "k": 3, "r": 2, "f": "sum-surplus", "alpha": 0.5,)"
       R"( "non_overlapping": true})",
       {"--k", "3", "--r", "2", "--f", "sum-surplus", "--alpha", "0.5",
        "--non-overlapping"}},
  };
  return cases;
}

TEST_F(ToolsTest, ServeRepliesMatchQueryAnswers) {
  std::string batch;
  for (const QueryCase& c : QueryCases()) batch += c.line + "\n";
  const std::vector<std::string> plain = {"--snapshot", *base_};
  const std::vector<std::string> chained = {"--snapshot", *base_, "--delta",
                                            *delta_};
  for (const std::vector<std::string>& source : {plain, chained}) {
    std::vector<std::string> args = {TICL_SERVE_BIN, "--threads", "2"};
    args.insert(args.end(), source.begin(), source.end());
    const RunResult serve = Run(args, batch);
    ASSERT_EQ(serve.exit_code, 0) << serve.err;
    if (source == chained) {
      EXPECT_NE(serve.err.find("1 deltas applied"), std::string::npos)
          << serve.err;
    }
    const std::vector<std::string> replies = Lines(serve.out);
    ASSERT_EQ(replies.size(), QueryCases().size()) << serve.out;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const QueryCase& c = QueryCases()[i];
      std::vector<std::string> query_args = {TICL_QUERY_BIN};
      query_args.insert(query_args.end(), source.begin(), source.end());
      query_args.insert(query_args.end(), c.flags.begin(), c.flags.end());
      query_args.insert(query_args.end(), {"--output", "json"});
      const RunResult query = Run(query_args);
      ASSERT_EQ(query.exit_code, 0) << query.err;
      const auto expected = Communities(query.out);
      EXPECT_FALSE(expected.empty()) << c.line;
      EXPECT_EQ(Communities(replies[i]), expected) << c.line;
    }
  }
}

// -- ticl_served -------------------------------------------------------------

/// Sends `request` on a new connection to 127.0.0.1:`port` and reads
/// `lines` reply lines (fewer on a connection error or after 60 s).
std::string Exchange(unsigned port, const std::string& request,
                     std::size_t lines) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string reply;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return reply;
  }
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  std::size_t seen = 0;
  char buffer[65536];
  while (seen < lines && Clock::now() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i) seen += buffer[i] == '\n';
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST_F(ToolsTest, ServedAnswersOverTcpAndDrainsOnSigterm) {
  WriteFile(Path("served.in"), "");
  const pid_t pid =
      Spawn({TICL_SERVED_BIN, "--snapshot", *base_, "--port", "0",
             "--threads", "2"},
            Path("served.in"), Path("served.out"), Path("served.err"));
  ASSERT_GT(pid, 0);

  // The port is known once the "listening on ADDR:PORT" line is out.
  unsigned port = 0;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (port == 0 && Clock::now() < deadline) {
    const std::string err = ReadFile(Path("served.err"));
    const std::size_t at = err.find("listening on 127.0.0.1:");
    if (at != std::string::npos) {
      port = static_cast<unsigned>(
          std::strtoul(err.c_str() + at + 23, nullptr, 10));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (port == 0) WaitFor(pid, std::chrono::seconds(0));  // kills it
  ASSERT_NE(port, 0u) << ReadFile(Path("served.err"));

  // Admin replies are not ordered after query replies, so the stats
  // request waits for the answer.
  const std::string answer = Exchange(port, QueryCases()[0].line + "\n", 1);
  const std::string stats =
      Exchange(port, R"({"id": "s", "admin": "stats"})" "\n", 1);
  ::kill(pid, SIGTERM);
  const int exit_code = WaitFor(pid, std::chrono::seconds(60));
  const std::string err = ReadFile(Path("served.err"));

  const RunResult query =
      Run({TICL_QUERY_BIN, "--snapshot", *base_, "--k", "4", "--r", "3",
           "--f", "sum", "--output", "json"});
  EXPECT_FALSE(Communities(answer).empty()) << answer;
  EXPECT_EQ(Communities(answer), Communities(query.out));
  EXPECT_NE(stats.find(R"("admin": "stats", "ok": true)"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find(R"("queries": 1,)"), std::string::npos) << stats;
  EXPECT_EQ(exit_code, 0) << err;
  EXPECT_NE(err.find("drained:"), std::string::npos) << err;
}

}  // namespace
