// Loopback integration tests for the TCP front end: real sockets, real
// concurrent clients, answers compared byte-for-byte against inline
// Solve() through the shared protocol formatter.

#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algo/weights.h"
#include "core/search.h"
#include "gen/chung_lu.h"
#include "graph/graph_delta.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"

namespace ticl {
namespace {

Graph WeightedChungLu(std::uint64_t seed, VertexId n = 400) {
  ChungLuOptions cl;
  cl.num_vertices = n;
  cl.target_average_degree = 8.0;
  cl.gamma = 2.5;
  cl.seed = seed;
  Graph g = GenerateChungLu(cl);
  AssignWeights(&g, WeightScheme::kPageRank, seed);
  return g;
}

/// Minimal blocking loopback client: line-oriented send, line-oriented
/// receive with a deadline so a server bug fails the test instead of
/// hanging it.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void SendLine(const std::string& line) {
    const std::string framed = line + "\n";
    SendRaw(framed);
  }

  void SendRaw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t sent = ::send(fd_, bytes.data() + off,
                                  bytes.size() - off, MSG_NOSIGNAL);
      if (sent <= 0) {
        if (sent < 0 && errno == EINTR) continue;
        break;
      }
      off += static_cast<std::size_t>(sent);
    }
  }

  /// Half-close: tells the server this client has no more requests.
  void FinishSending() { ::shutdown(fd_, SHUT_WR); }

  /// Next complete line (without the newline); empty + eof() on EOF or
  /// deadline.
  std::string ReadLine(int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        eof_ = true;
        return "";
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int remaining = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count());
      const int ready = ::poll(&pfd, 1, remaining);
      if (ready <= 0) {
        if (ready < 0 && errno == EINTR) continue;
        eof_ = true;
        return "";
      }
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      eof_ = true;
      return "";
    }
  }

  /// True once ReadLine hit EOF/timeout with nothing buffered.
  bool eof() const { return eof_; }

 private:
  int fd_ = -1;
  bool connected_ = false;
  bool eof_ = false;
  std::string buffer_;
};

/// Engine + running server on an ephemeral loopback port; tears both
/// down in order.
class ServerHarness {
 public:
  ServerHarness(Graph graph, EngineOptions engine_options,
                ServerOptions server_options = {}) {
    engine_ = std::make_unique<QueryEngine>(std::move(graph),
                                            engine_options);
    server_options.port = 0;
    server_ = std::make_unique<Server>(engine_.get(), server_options);
    std::string error;
    start_ok_ = server_->Start(&error);
    EXPECT_TRUE(start_ok_) << error;
    if (start_ok_) {
      serve_thread_ = std::thread([this] { server_->Serve(); });
    }
  }

  ~ServerHarness() { Shutdown(); }

  void Shutdown() {
    if (serve_thread_.joinable()) {
      server_->RequestDrain();
      serve_thread_.join();
    }
  }

  QueryEngine& engine() { return *engine_; }
  Server& server() { return *server_; }
  std::uint16_t port() const { return server_->port(); }
  bool ok() const { return start_ok_; }

 private:
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
  bool start_ok_ = false;
};

/// The answer portion of a response line, for bit-identical comparison
/// against inline Solve() (cached/elapsed_seconds legitimately differ
/// per execution).
std::string CommunitiesPortion(const std::string& response_line) {
  const std::size_t pos = response_line.find("\"communities\": ");
  if (pos == std::string::npos) return "<no communities in: " + response_line + ">";
  return response_line.substr(pos);
}

std::string ExpectedCommunitiesPortion(const Graph& g, const Query& query) {
  const SearchResult direct = Solve(g, query);
  return "\"communities\": " + FormatCommunitiesJson(direct) + "}";
}

TEST(ServerTest, ConcurrentClientsMatchInlineSolveBitIdentical) {
  Graph g = WeightedChungLu(17);
  const Graph reference = g;
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  ServerHarness harness(std::move(g), engine_options);
  ASSERT_TRUE(harness.ok());

  const struct {
    const char* line;
    Query query;
  } kWorkload[] = {
      {R"({"k": 2, "r": 3, "f": "sum"})",
       [] {
         Query q;
         q.k = 2;
         q.r = 3;
         return q;
       }()},
      {R"({"k": 3, "r": 2, "f": "min"})",
       [] {
         Query q;
         q.k = 3;
         q.r = 2;
         q.aggregation = AggregationSpec::Min();
         return q;
       }()},
      {R"({"k": 2, "r": 2, "f": "avg", "s": 10})",
       [] {
         Query q;
         q.k = 2;
         q.r = 2;
         q.size_limit = 10;
         q.aggregation = AggregationSpec::Avg();
         return q;
       }()},
      {R"({"k": 2, "r": 2, "f": "max", "non_overlapping": true})",
       [] {
         Query q;
         q.k = 2;
         q.r = 2;
         q.non_overlapping = true;
         q.aggregation = AggregationSpec::Max();
         return q;
       }()},
  };

  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(harness.port());
      if (!client.connected()) {
        failures[c] = "connect failed";
        return;
      }
      // Interleave: send everything, then read everything — responses
      // carry ids, order across queries is not part of the contract.
      int expected = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& item : kWorkload) {
          std::string line = item.line;
          // Unique id per (client, round, query) so duplicates would be
          // visible.
          const std::string id =
              std::to_string(c * 1000 + round * 100 + expected);
          line.insert(1, "\"id\": " + id + ", ");
          client.SendLine(line);
          ++expected;
        }
      }
      client.FinishSending();
      int received = 0;
      while (true) {
        const std::string response = client.ReadLine();
        if (response.empty()) break;
        ++received;
        // Find which query this response answers via its "query" echo.
        bool matched = false;
        for (const auto& item : kWorkload) {
          const std::string echo =
              "\"query\": \"" + QueryToString(item.query) + "\"";
          if (response.find(echo) == std::string::npos) continue;
          matched = true;
          const std::string want =
              ExpectedCommunitiesPortion(reference, item.query);
          if (CommunitiesPortion(response) != want) {
            failures[c] = "mismatch for " + echo + ": " + response;
          }
          break;
        }
        if (!matched) failures[c] = "unrecognized response: " + response;
      }
      if (received != kRounds * 4) {
        failures[c] = "expected " + std::to_string(kRounds * 4) +
                      " responses, got " + std::to_string(received);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], "") << "client " << c;

  harness.Shutdown();
  const ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.queries_submitted, kClients * kRounds * 4u);
  EXPECT_EQ(stats.responses_sent, kClients * kRounds * 4u);
  EXPECT_EQ(stats.responses_dropped, 0u);
  EXPECT_EQ(stats.server_rejected, 0u);
}

TEST(ServerTest, AdmissionControlRejectsInsteadOfStalling) {
  Graph g = WeightedChungLu(23);
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.cache_member_budget = 0;
  engine_options.solve_started_hook_for_test = [release_future] {
    release_future.wait();
  };
  ServerOptions server_options;
  server_options.max_in_flight = 1;
  ServerHarness harness(std::move(g), engine_options, server_options);
  ASSERT_TRUE(harness.ok());

  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  client.SendLine(R"({"id": 100, "k": 2, "r": 1, "f": "sum"})");

  // The first query occupies the single in-flight slot (its solve is
  // parked on the hook). Distinct follow-ups must be rejected
  // immediately — the loop stays responsive while the engine is busy.
  constexpr int kOverload = 3;
  for (int i = 0; i < kOverload; ++i) {
    client.SendLine("{\"id\": " + std::to_string(200 + i) +
                    ", \"k\": 2, \"r\": " + std::to_string(2 + i) +
                    ", \"f\": \"sum\"}");
  }
  int rejected = 0;
  for (int i = 0; i < kOverload; ++i) {
    const std::string response = client.ReadLine();
    ASSERT_FALSE(response.empty()) << "no rejection reply " << i;
    EXPECT_NE(response.find("\"kind\": \"rejected\""), std::string::npos)
        << response;
    EXPECT_NE(response.find("server at capacity"), std::string::npos)
        << response;
    ++rejected;
  }
  EXPECT_EQ(rejected, kOverload);

  release.set_value();
  const std::string answer = client.ReadLine();
  EXPECT_NE(answer.find("\"id\": 100"), std::string::npos) << answer;
  EXPECT_NE(answer.find("\"communities\""), std::string::npos) << answer;

  harness.Shutdown();
  EXPECT_EQ(harness.server().stats().server_rejected,
            static_cast<std::uint64_t>(kOverload));
}

TEST(ServerTest, PerConnectionCapKeepsFloodingClientFromStarvingOthers) {
  // One chatty connection used to be able to claim every global in-flight
  // slot (admission only checked the total), starving every other client.
  // With the per-connection cap (auto: max_in_flight / 4, min 1) the
  // flooder hits its own ceiling while global slots stay free for the
  // victim.
  Graph g = WeightedChungLu(67);
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.cache_member_budget = 0;
  engine_options.solve_started_hook_for_test = [release_future] {
    release_future.wait();
  };
  ServerOptions server_options;
  server_options.max_in_flight = 2;  // per-conn auto-cap: max(2/4, 1) = 1
  ServerHarness harness(std::move(g), engine_options, server_options);
  ASSERT_TRUE(harness.ok());

  TestClient flood(harness.port());
  ASSERT_TRUE(flood.connected());
  flood.SendLine(R"({"id": 100, "k": 2, "r": 1, "f": "sum"})");
  flood.SendLine(R"({"id": 101, "k": 2, "r": 2, "f": "sum"})");
  flood.SendLine(R"({"id": 102, "k": 2, "r": 3, "f": "sum"})");

  // The flooder's first query holds its single per-connection slot (its
  // solve is parked on the hook); the other two bounce off the cap even
  // though a global slot is still free.
  for (int i = 0; i < 2; ++i) {
    const std::string rejection = flood.ReadLine();
    ASSERT_FALSE(rejection.empty()) << "no rejection reply " << i;
    EXPECT_NE(rejection.find("\"kind\": \"rejected\""), std::string::npos)
        << rejection;
    EXPECT_NE(rejection.find("connection at capacity"), std::string::npos)
        << rejection;
  }

  // The victim's query must be admitted while the flooder's solve is
  // still parked — that is the starvation the cap exists to prevent.
  TestClient victim(harness.port());
  ASSERT_TRUE(victim.connected());
  victim.SendLine(R"({"id": 200, "k": 2, "r": 1, "f": "min"})");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (harness.server().stats().queries_submitted < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(harness.server().stats().queries_submitted, 2u);

  release.set_value();
  const std::string victim_answer = victim.ReadLine();
  EXPECT_NE(victim_answer.find("\"id\": 200"), std::string::npos)
      << victim_answer;
  EXPECT_NE(victim_answer.find("\"communities\""), std::string::npos)
      << victim_answer;
  const std::string flood_answer = flood.ReadLine();
  EXPECT_NE(flood_answer.find("\"id\": 100"), std::string::npos)
      << flood_answer;
  EXPECT_NE(flood_answer.find("\"communities\""), std::string::npos)
      << flood_answer;

  harness.Shutdown();
  const ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.server_rejected_per_conn, 2u);
  EXPECT_EQ(stats.server_rejected, 0u);
  EXPECT_EQ(stats.queries_submitted, 2u);
  EXPECT_EQ(stats.responses_sent, 2u);  // rejections are not completions
}

TEST(ServerTest, GracefulDrainCompletesInFlightAndRefusesLateConnections) {
  Graph g = WeightedChungLu(29);
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::promise<void> started;
  std::atomic<bool> started_signalled{false};
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.cache_member_budget = 0;
  engine_options.solve_started_hook_for_test = [&, release_future] {
    if (!started_signalled.exchange(true)) started.set_value();
    release_future.wait();
  };
  ServerHarness harness(std::move(g), engine_options);
  ASSERT_TRUE(harness.ok());

  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  client.SendLine(R"({"id": 1, "k": 2, "r": 2, "f": "sum"})");
  started.get_future().wait();  // the query is inside the engine

  harness.server().RequestDrain();

  // Late connections: the listener closes during drain; within a bounded
  // window new connects must start failing (or be closed unanswered).
  bool refused = false;
  for (int attempt = 0; attempt < 100 && !refused; ++attempt) {
    TestClient late(harness.port());
    if (!late.connected()) {
      refused = true;
      break;
    }
    // Connected before the listener closed (or via the backlog): the
    // server must not answer it during drain — EOF without a response.
    late.SendLine(R"({"id": 9, "k": 2, "r": 1, "f": "sum"})");
    const std::string response = late.ReadLine(2000);
    if (response.empty()) refused = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(refused);

  // The in-flight query completes and its reply is flushed — exactly
  // once.
  release.set_value();
  const std::string answer = client.ReadLine();
  EXPECT_NE(answer.find("\"id\": 1,"), std::string::npos) << answer;
  EXPECT_NE(answer.find("\"communities\""), std::string::npos) << answer;
  const std::string extra = client.ReadLine(5000);
  EXPECT_EQ(extra, "");  // EOF after the drain, no duplicate

  harness.Shutdown();  // Serve() must have returned; join here
  const ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.responses_sent, 1u);
  EXPECT_EQ(stats.responses_dropped, 0u);
}

TEST(ServerTest, AdminApplyDeltaSwapsLiveAndAnswersFromNewGraph) {
  Graph g = WeightedChungLu(31);
  const Graph reference = g;
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  ServerHarness harness(std::move(g), engine_options);
  ASSERT_TRUE(harness.ok());

  // Build a real delta snapshot file against the serving graph. The
  // delta must change the CSR structure (not just weights): the parent
  // fingerprint hashes structure only, and the wrong-parent check below
  // needs the post-delta fingerprint to differ.
  GraphDelta delta;
  delta.weight_updates.push_back(
      WeightUpdate{0, reference.weight(0) + 10.0});
  VertexId other = 1;
  {
    std::vector<bool> adjacent(reference.num_vertices(), false);
    adjacent[0] = true;
    for (const VertexId nbr : reference.neighbors(0)) adjacent[nbr] = true;
    while (other < reference.num_vertices() && adjacent[other]) ++other;
    ASSERT_LT(other, reference.num_vertices());
  }
  delta.insert_edges.push_back(Edge{0, other});
  ASSERT_EQ(ValidateDelta(reference, delta), "");
  const std::string delta_path =
      ::testing::TempDir() + "/server_test_delta.snap";
  std::string error;
  ASSERT_TRUE(SaveDeltaSnapshot(delta_path, delta,
                                reference.fingerprint(), &error))
      << error;

  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());

  client.SendLine(R"({"id": "p", "admin": "ping"})");
  EXPECT_NE(client.ReadLine().find("\"admin\": \"ping\", \"ok\": true"),
            std::string::npos);

  client.SendLine("{\"id\": \"d\", \"admin\": \"apply_delta\", \"path\": \"" +
                  delta_path + "\"}");
  const std::string apply_reply = client.ReadLine();
  EXPECT_NE(apply_reply.find("\"admin\": \"apply_delta\", \"ok\": true"),
            std::string::npos)
      << apply_reply;
  EXPECT_NE(apply_reply.find("\"reweights\": 1"), std::string::npos)
      << apply_reply;

  // Queries after the swap answer from the mutated graph.
  const Graph mutated = ApplyValidatedDelta(reference, delta);
  Query query;
  query.k = 2;
  query.r = 3;
  client.SendLine(R"({"id": 5, "k": 2, "r": 3, "f": "sum"})");
  const std::string response = client.ReadLine();
  EXPECT_EQ(CommunitiesPortion(response),
            ExpectedCommunitiesPortion(mutated, query))
      << response;

  client.SendLine(R"({"id": "s", "admin": "stats"})");
  const std::string stats_reply = client.ReadLine();
  EXPECT_NE(stats_reply.find("\"deltas_applied\": 1"), std::string::npos)
      << stats_reply;

  // Wrong-parent delta (recorded against the pre-delta graph) must be
  // refused: the serving graph has moved on.
  client.SendLine("{\"id\": \"d2\", \"admin\": \"apply_delta\", \"path\": \"" +
                  delta_path + "\"}");
  const std::string second_reply = client.ReadLine();
  EXPECT_NE(second_reply.find("\"kind\": \"admin\""), std::string::npos)
      << second_reply;
  EXPECT_NE(second_reply.find("different parent"), std::string::npos)
      << second_reply;

  harness.Shutdown();
  EXPECT_EQ(harness.engine().stats().deltas_applied, 1u);
}

TEST(ServerTest, MalformedAndOversizedLinesGetErrorsStreamStaysUsable) {
  Graph g = WeightedChungLu(37);
  const Graph reference = g;
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  ServerHarness harness(std::move(g), engine_options);
  ASSERT_TRUE(harness.ok());

  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());

  client.SendLine(R"({"id": 1, "k": "four"})");
  std::string response = client.ReadLine();
  EXPECT_NE(response.find("\"kind\": \"parse\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"id\": 1,"), std::string::npos) << response;

  client.SendLine("total garbage");
  response = client.ReadLine();
  EXPECT_NE(response.find("\"kind\": \"parse\""), std::string::npos)
      << response;

  // An oversized line is answered with an error and discarded up to its
  // newline; the stream resynchronizes after it.
  client.SendLine("{\"id\": 2, \"x\": \"" +
                  std::string(kMaxRequestLineBytes + 1024, 'a') + "\"}");
  response = client.ReadLine();
  EXPECT_NE(response.find("exceeds"), std::string::npos) << response;
  EXPECT_NE(response.find("\"kind\": \"parse\""), std::string::npos)
      << response;

  // Invalid (well-formed but semantically wrong) query: k = 0.
  client.SendLine(R"({"id": 3, "k": 0, "r": 1})");
  response = client.ReadLine();
  EXPECT_NE(response.find("\"kind\": \"invalid\""), std::string::npos)
      << response;

  // A beta whose influence bound overflows would answer "influence": inf,
  // which is not JSON; it is refused as invalid instead.
  client.SendLine(
      R"({"id": 5, "k": 2, "r": 3, "f": "weight-density", "beta": -1e308})");
  response = client.ReadLine();
  EXPECT_NE(response.find("\"kind\": \"invalid\""), std::string::npos)
      << response;
  EXPECT_EQ(response.find("\"influence\""), std::string::npos) << response;

  // And a valid query still gets a correct answer on the same socket.
  Query query;
  query.k = 2;
  query.r = 2;
  client.SendLine(R"({"id": 4, "k": 2, "r": 2, "f": "sum"})");
  response = client.ReadLine();
  EXPECT_EQ(CommunitiesPortion(response),
            ExpectedCommunitiesPortion(reference, query))
      << response;

  harness.Shutdown();
  const ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.parse_errors, 3u);  // bad k, garbage, oversized
  EXPECT_EQ(stats.oversized_lines, 1u);
  EXPECT_EQ(stats.invalid_queries, 2u);
}

TEST(ServerTest, AdminDisabledRefusesCommands) {
  Graph g = WeightedChungLu(41, 120);
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  ServerOptions server_options;
  server_options.enable_admin = false;
  ServerHarness harness(std::move(g), engine_options, server_options);
  ASSERT_TRUE(harness.ok());

  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  client.SendLine(R"({"id": 1, "admin": "ping"})");
  const std::string response = client.ReadLine();
  EXPECT_NE(response.find("\"kind\": \"admin\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("disabled"), std::string::npos) << response;
  harness.Shutdown();
  EXPECT_EQ(harness.server().stats().admin_commands, 0u);
}

TEST(ServerTest, AdminDrainCommandShutsDownGracefully) {
  Graph g = WeightedChungLu(43, 120);
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  ServerHarness harness(std::move(g), engine_options);
  ASSERT_TRUE(harness.ok());

  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  client.SendLine(R"({"id": 1, "k": 2, "r": 1, "f": "sum"})");
  const std::string answer = client.ReadLine();
  EXPECT_NE(answer.find("\"communities\""), std::string::npos) << answer;

  client.SendLine(R"({"id": "bye", "admin": "drain"})");
  const std::string ack = client.ReadLine();
  EXPECT_NE(ack.find("\"admin\": \"drain\", \"ok\": true"),
            std::string::npos)
      << ack;
  // The drain ack is flushed, then the server closes the connection.
  EXPECT_EQ(client.ReadLine(10000), "");
  harness.Shutdown();  // Serve() already returning; join must not hang
}

TEST(ServerTest, DrainDeadlineForceClosesNeverReadingPeer) {
  Graph g = WeightedChungLu(59);
  const Graph reference = g;
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  ServerOptions server_options;
  server_options.drain_grace_ms = 300;
  // Let replies pile up in the server instead of pausing intake, so the
  // never-reading peer accumulates a provably unflushable buffer. The
  // per-connection fairness cap is lifted for the same reason: this test
  // wants one connection to flood.
  server_options.max_write_buffer_bytes = 1u << 30;
  server_options.max_in_flight_per_conn = 1u << 20;
  ServerHarness harness(std::move(g), engine_options, server_options);
  ASSERT_TRUE(harness.ok());

  Query query;
  query.k = 2;
  query.r = 100;
  const std::size_t reply_size =
      ExpectedCommunitiesPortion(reference, query).size() + 80;
  // Enough reply bytes that no kernel socket buffering can absorb them:
  // the connection must still hold unflushed data when the drain hits.
  const std::size_t target_bytes = 32u << 20;
  const std::size_t sends = target_bytes / reply_size + 1;

  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  for (std::size_t i = 0; i < sends; ++i) {
    client.SendLine(R"({"k": 2, "r": 100, "f": "sum"})");
  }
  // Wait until the server has produced most of those replies (they are
  // cache hits after the first) — then drain against a peer that never
  // reads. Without the grace deadline Shutdown() would hang forever.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (harness.server().stats().responses_sent < sends / 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(harness.server().stats().responses_sent, sends / 2);

  harness.Shutdown();
  EXPECT_GE(harness.server().stats().drain_forced_closes, 1u);
}

TEST(ServerTest, SolverExceptionBecomesInternalErrorReply) {
  Graph g = WeightedChungLu(53, 150);
  const Graph reference = g;
  std::atomic<bool> threw{false};
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.cache_member_budget = 0;
  // First solve throws (the hook runs on the worker, inside Run's try);
  // later solves proceed. A crash or a leaked in-flight slot here would
  // hang the drain below.
  engine_options.solve_started_hook_for_test = [&threw] {
    if (!threw.exchange(true)) throw std::runtime_error("injected failure");
  };
  ServerHarness harness(std::move(g), engine_options);
  ASSERT_TRUE(harness.ok());

  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  client.SendLine(R"({"id": 1, "k": 2, "r": 1, "f": "sum"})");
  const std::string failed = client.ReadLine();
  EXPECT_NE(failed.find("\"kind\": \"internal\""), std::string::npos)
      << failed;
  EXPECT_NE(failed.find("injected failure"), std::string::npos) << failed;

  // The slot was returned and the pending entry retired: the same query
  // succeeds on retry.
  Query query;
  query.k = 2;
  query.r = 1;
  client.SendLine(R"({"id": 2, "k": 2, "r": 1, "f": "sum"})");
  const std::string answer = client.ReadLine();
  EXPECT_EQ(CommunitiesPortion(answer),
            ExpectedCommunitiesPortion(reference, query))
      << answer;

  harness.Shutdown();  // must not hang on a leaked in-flight count
}

TEST(ServerTest, HalfCloseDeliversAllPendingAnswers) {
  Graph g = WeightedChungLu(47);
  const Graph reference = g;
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  ServerHarness harness(std::move(g), engine_options);
  ASSERT_TRUE(harness.ok());

  // Batch-style client: send everything, half-close, then read to EOF.
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  constexpr int kQueries = 6;
  for (int i = 0; i < kQueries; ++i) {
    client.SendLine("{\"id\": " + std::to_string(i) +
                    ", \"k\": 2, \"r\": " + std::to_string(1 + i % 3) +
                    ", \"f\": \"sum\"}");
  }
  client.FinishSending();
  int received = 0;
  while (true) {
    const std::string response = client.ReadLine();
    if (response.empty()) break;
    EXPECT_NE(response.find("\"communities\""), std::string::npos)
        << response;
    ++received;
  }
  EXPECT_EQ(received, kQueries);
  harness.Shutdown();
}

/// The integer value of `"name": N` in an admin stats reply, or -1 when
/// the field is missing.
long long StatsField(const std::string& reply, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const std::size_t pos = reply.find(key);
  if (pos == std::string::npos) return -1;
  return std::stoll(reply.substr(pos + key.size()));
}

TEST(ServerTest, CacheHitReplyEqualsMissReplyApartFromCached) {
  Graph g = WeightedChungLu(17);
  const Graph reference = g;
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  ServerHarness harness(std::move(g), engine_options);
  ASSERT_TRUE(harness.ok());
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());

  // Unconstrained sum top-1: a whole k-core component, the answer shape
  // whose re-formatting a hit must not pay for.
  Query query;
  query.k = 2;
  query.r = 1;
  const std::string request = R"({"id": 7, "k": 2, "r": 1, "f": "sum"})";
  client.SendLine(request);
  const std::string miss = client.ReadLine();
  client.SendLine(request);
  const std::string hit = client.ReadLine();
  const std::string cached_false = "\"cached\": false";
  const std::size_t flag = miss.find(cached_false);
  ASSERT_NE(flag, std::string::npos) << miss;
  std::string want = miss;
  want.replace(flag, cached_false.size(), "\"cached\": true");
  EXPECT_EQ(hit, want);
  EXPECT_EQ(CommunitiesPortion(hit),
            ExpectedCommunitiesPortion(reference, query));

  // The stats reply shows the resident bytes next to the member charge.
  const SearchResult direct = Solve(reference, query);
  client.SendLine(R"({"id": "s", "admin": "stats"})");
  const std::string stats_reply = client.ReadLine();
  EXPECT_EQ(StatsField(stats_reply, "cache_charge"),
            static_cast<long long>(direct.communities[0].members.size()))
      << stats_reply;
  EXPECT_EQ(StatsField(stats_reply, "cache_bytes"),
            static_cast<long long>(FormatCommunitiesJson(direct).size()))
      << stats_reply;

  // Reweighting a member evicts the entry, and its bytes with it.
  GraphDelta delta;
  const VertexId member = direct.communities[0].members[0];
  delta.weight_updates.push_back(
      WeightUpdate{member, reference.weight(member) + 1.0});
  const std::string delta_path =
      ::testing::TempDir() + "/server_test_evict_delta.snap";
  std::string error;
  ASSERT_TRUE(SaveDeltaSnapshot(delta_path, delta, reference.fingerprint(),
                                &error))
      << error;
  client.SendLine("{\"id\": \"d\", \"admin\": \"apply_delta\", \"path\": \"" +
                  delta_path + "\"}");
  const std::string apply_reply = client.ReadLine();
  ASSERT_NE(apply_reply.find("\"ok\": true"), std::string::npos)
      << apply_reply;
  client.SendLine(R"({"id": "s2", "admin": "stats"})");
  const std::string after_reply = client.ReadLine();
  EXPECT_EQ(StatsField(after_reply, "cache_partial_evicted"), 1)
      << after_reply;
  EXPECT_EQ(StatsField(after_reply, "cache_bytes"), 0) << after_reply;
  harness.Shutdown();
}

TEST(ServerTest, CacheOffHoldsNoReplyBytes) {
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.cache_member_budget = 0;
  ServerHarness harness(WeightedChungLu(17), engine_options);
  ASSERT_TRUE(harness.ok());
  TestClient client(harness.port());
  ASSERT_TRUE(client.connected());
  client.SendLine(R"({"id": 1, "k": 2, "r": 1, "f": "sum"})");
  const std::string reply = client.ReadLine();
  EXPECT_NE(reply.find("\"cached\": false"), std::string::npos) << reply;
  client.SendLine(R"({"id": "s", "admin": "stats"})");
  const std::string stats_reply = client.ReadLine();
  EXPECT_EQ(StatsField(stats_reply, "cache_uncacheable"), 1) << stats_reply;
  EXPECT_EQ(StatsField(stats_reply, "cache_bytes"), 0) << stats_reply;
  harness.Shutdown();
}

}  // namespace
}  // namespace ticl
