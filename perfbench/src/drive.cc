#include "drive.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "reply.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Server processes started before the workload to sample set-up time and
// the apply_delta round trip. Both vary from process to process by more
// than within one (the steady apply cost of a process sits anywhere in
// about 25-33 ms on dblp@40, and its first applies run up to twice as
// long), so each metric is a median over processes.
constexpr int kProbeLaunches = 8;

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  bool Start(const std::string& binary, const std::string& snapshot,
             std::string* error) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      *error = "pipe: " + std::string(std::strerror(errno));
      return false;
    }
    const std::string threads = std::to_string(kServerThreads);
    std::vector<std::string> args = {binary,   "--snapshot", snapshot,
                                     "--mmap", "--port",     "0",
                                     "--threads", threads};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = "fork: " + std::string(std::strerror(errno));
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      // The server must not outlive this process.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], 2);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, 1);
      ::execv(binary.c_str(), argv.data());
      _exit(127);
    }
    ::close(fds[1]);
    err_fd_ = fds[0];
    // ticl_served prints "listening on ADDR:PORT" once the snapshot is
    // open and the listener is bound.
    std::string text;
    const Clock::time_point start = Clock::now();
    while (true) {
      const std::size_t at = text.find("listening on ");
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        const std::size_t colon = text.find(':', at);
        port_ = static_cast<std::uint16_t>(
            std::strtoul(text.c_str() + colon + 1, nullptr, 10));
        if (port_ == 0) {
          *error = "could not read the server's port from: " + text;
          return false;
        }
        return true;
      }
      const int remaining_ms =
          120000 - static_cast<int>(Since(start) * 1000.0);
      pollfd pfd{err_fd_, POLLIN, 0};
      if (remaining_ms <= 0 || ::poll(&pfd, 1, remaining_ms) <= 0) {
        *error = "ticl_served did not start listening: " + text;
        return false;
      }
      char buffer[4096];
      const ssize_t n = ::read(err_fd_, buffer, sizeof(buffer));
      if (n <= 0) {
        *error = "ticl_served exited before listening: " + text;
        return false;
      }
      text.append(buffer, static_cast<std::size_t>(n));
    }
  }

  std::uint16_t port() const { return port_; }

  /// VmHWM of the server process, in MiB; negative when unreadable.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return -1.0;
  }

  /// SIGTERM (graceful drain), then SIGKILL if it does not exit within
  /// 30 s. Returns true when the server exited 0 on its own.
  bool Stop() {
    bool clean = false;
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      const Clock::time_point start = Clock::now();
      int status = 0;
      pid_t done = 0;
      while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
             Since(start) < 30.0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (done == 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      } else {
        clean = done == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      pid_ = -1;
    }
    if (err_fd_ >= 0) {
      ::close(err_fd_);
      err_fd_ = -1;
    }
    return clean;
  }

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  std::uint16_t port_ = 0;
};

class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(std::uint16_t port, std::string* error) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      *error = "socket: " + std::string(std::strerror(errno));
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // A reply that takes longer than this counts as a timeout.
    timeval timeout{120, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      *error = "connect: " + std::string(std::strerror(errno));
      return false;
    }
    return true;
  }

  bool Send(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next reply line without its newline. False on EOF, error or timeout.
  bool ReadLine(std::string* line) {
    std::size_t scan = start_;
    while (true) {
      const std::size_t nl = buffer_.find('\n', scan);
      if (nl != std::string::npos) {
        line->assign(buffer_, start_, nl - start_);
        start_ = nl + 1;
        if (start_ == buffer_.size()) {
          buffer_.clear();
          start_ = 0;
        }
        return true;
      }
      scan = buffer_.size();
      if (start_ > 0) {
        buffer_.erase(0, start_);
        scan -= start_;
        start_ = 0;
      }
      const std::size_t old = buffer_.size();
      buffer_.resize(old + kChunk);
      const ssize_t n = ::recv(fd_, buffer_.data() + old, kChunk, 0);
      if (n <= 0) {
        buffer_.resize(old);
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      buffer_.resize(old + static_cast<std::size_t>(n));
    }
  }

  /// Sends one line and waits for its reply; *ms gets the round trip.
  bool Exchange(const std::string& request, std::string* reply, double* ms) {
    const Clock::time_point start = Clock::now();
    if (!Send(request) || !ReadLine(reply)) return false;
    *ms = Since(start) * 1000.0;
    return true;
  }

 private:
  static constexpr std::size_t kChunk = 256 * 1024;
  int fd_ = -1;
  std::string buffer_;
  std::size_t start_ = 0;
};

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string ApplyDeltaLine(std::uint64_t id, const std::string& path) {
  return "{\"id\": " + std::to_string(id) +
         ", \"admin\": \"apply_delta\", \"path\": " + JsonString(path) +
         "}\n";
}

// Starts a server and measures launch-to-first-reply with a ping.
bool StartAndPing(const std::string& binary, const std::string& snapshot,
                  ServerProcess* server, Connection* conn, double* setup_s,
                  std::string* error) {
  const Clock::time_point start = Clock::now();
  if (!server->Start(binary, snapshot, error) ||
      !conn->Connect(server->port(), error)) {
    return false;
  }
  std::string reply;
  double ms = 0.0;
  if (!conn->Exchange("{\"id\": 0, \"admin\": \"ping\"}\n", &reply, &ms) ||
      reply.find("\"ok\": true") == std::string::npos) {
    *error = "ping failed: " + reply;
    return false;
  }
  *setup_s = Since(start);
  return true;
}

bool OpenConnections(std::uint16_t port, std::size_t count,
                     std::vector<std::unique_ptr<Connection>>* conns,
                     std::string* error) {
  while (conns->size() < count) {
    conns->push_back(std::make_unique<Connection>());
    if (!conns->back()->Connect(port, error)) return false;
  }
  return true;
}

// One answered request of the timed phase.
struct Sample {
  double done_s;  // completion, seconds into the timed phase
  double ms;      // client-side latency
};

// Per-thread tallies, merged after the threads join.
struct Tally {
  std::uint64_t answered = 0;
  std::vector<Sample> samples;
  Outcome failures;
};

void Merge(const Tally& t, Outcome* out) {
  out->failed += t.failures.failed;
  out->unexpected_failures += t.failures.unexpected_failures;
  for (const std::string& note : t.failures.notes) {
    if (out->notes.size() < 8) out->notes.push_back(note);
  }
}

// Sends one query and reads its reply, matching by id. Error replies,
// rejections, timeouts and id mismatches count as failures.
bool Ask(Connection* conn, const BenchQuery& q, std::uint64_t id,
         std::string* reply, double* ms, Tally* tally) {
  if (!conn->Exchange(RequestLine(q, id), reply, ms)) {
    tally->failures.Fail(q.known_fault,
                         Describe(q) + ": no reply (closed or timed out)");
    return false;
  }
  std::uint64_t got = 0;
  std::string kind;
  if (!ReplyId(*reply, &got) || got != id) {
    tally->failures.Fail(q.known_fault, Describe(q) + ": reply id mismatch");
    return false;
  }
  if (IsErrorReply(*reply, &kind)) {
    tally->failures.Fail(q.known_fault,
                         Describe(q) + ": error reply (" + kind + ")");
    return false;
  }
  return true;
}

// Applies the first `count` deltas of the chain one after another on
// `conn`; returns the median round trip in ms, or a negative value when an
// apply fails (recorded in *out).
double ApplyChain(Connection* conn, const std::vector<std::string>& paths,
                  std::size_t count, Outcome* out) {
  std::vector<double> rtts_ms;
  for (std::size_t i = 0; i < count && i < paths.size(); ++i) {
    std::string reply;
    double ms = 0.0;
    if (!conn->Exchange(ApplyDeltaLine(1000000 + i, paths[i]), &reply, &ms) ||
        reply.find("\"ok\": true") == std::string::npos) {
      out->Fail(false, "apply_delta failed: " + reply.substr(0, 200));
      return -1.0;
    }
    rtts_ms.push_back(ms);
  }
  return Quantile(rtts_ms, 0.5);
}

std::string CheckReply(Checker* checker, const BenchQuery& q,
                       std::string_view line) {
  std::vector<Community> answer;
  std::string error;
  if (!ParseCommunities(CommunitiesText(line), &answer, &error)) return error;
  return checker->Check(q, answer);
}

struct Timed {
  double elapsed_s = 0.0;
  std::uint64_t answered = 0;
  std::vector<Sample> samples;
  /// Per-process medians of the apply_delta round trip.
  std::vector<double> delta_ms;
  /// VmHWM of each workload server at the end of its run, in MiB.
  std::vector<double> peak_rss_mb;
};

// solve-mix: each round starts a fresh server (so every request misses
// the cache), hands the round's distinct queries to four connections and
// stops the server. There are at least two rounds, and rounds repeat until
// the timed phase reaches `seconds`.
bool RunSolveMix(const Plan& plan, const DriveInputs& in,
                 std::vector<double>* setups, Timed* timed, Outcome* out,
                 std::string* error) {
  const std::size_t n = plan.queries.size();
  std::vector<std::vector<std::string>> rounds;
  Checker checker(in.base);
  while (rounds.size() < 2 || timed->elapsed_s < in.seconds) {
    ServerProcess server;
    std::vector<std::unique_ptr<Connection>> conns;
    conns.push_back(std::make_unique<Connection>());
    double setup = 0.0;
    if (!StartAndPing(in.served_binary, in.snapshot_path, &server,
                      conns[0].get(), &setup, error) ||
        !OpenConnections(server.port(), kConnections, &conns, error)) {
      return false;
    }
    setups->push_back(setup);
    std::vector<std::string> lines(n);
    std::vector<Tally> tallies(kConnections);
    std::atomic<std::size_t> next{0};
    const double offset = timed->elapsed_s;
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        std::size_t j;
        while ((j = next.fetch_add(1)) < n) {
          const std::uint32_t idx = plan.round_order[j];
          double ms = 0.0;
          ++tallies[c].answered;
          if (Ask(conns[c].get(), plan.queries[idx], idx + 1, &lines[idx],
                  &ms, &tallies[c])) {
            tallies[c].samples.push_back({offset + Since(start), ms});
          } else {
            lines[idx].clear();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    timed->elapsed_s += Since(start);
    for (const Tally& t : tallies) {
      timed->answered += t.answered;
      timed->samples.insert(timed->samples.end(), t.samples.begin(),
                            t.samples.end());
      Merge(t, out);
    }
    out->attempted += n;
    timed->peak_rss_mb.push_back(server.PeakRssMb());
    conns.clear();
    server.Stop();
    rounds.push_back(std::move(lines));
  }
  // Every reply is judged; a query must also answer byte-identically in
  // every round.
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for (std::size_t idx = 0; idx < n; ++idx) {
      const std::string& line = rounds[r][idx];
      if (line.empty()) continue;  // already counted
      const BenchQuery& q = plan.queries[idx];
      std::string problem = CheckReply(&checker, q, line);
      if (problem.empty() && r > 0 && !rounds[0][idx].empty() &&
          CommunitiesText(line) != CommunitiesText(rounds[0][idx])) {
        problem = "answer differs between rounds";
      }
      if (!problem.empty()) out->Fail(q.known_fault, Describe(q) + ": " + problem);
    }
  }
  return true;
}

// The untimed warm-up of hit-storm and churn: every hot query once,
// spread over `connections`. Fills refs[i] with the reply line.
void WarmUp(const Plan& plan, std::vector<std::unique_ptr<Connection>>* conns,
            std::size_t connections, std::vector<std::string>* refs,
            Outcome* out) {
  const std::size_t n = plan.queries.size();
  refs->assign(n, "");
  std::vector<Tally> tallies(connections);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      std::size_t idx;
      while ((idx = next.fetch_add(1)) < n) {
        double ms = 0.0;
        if (!Ask((*conns)[c].get(), plan.queries[idx], idx + 1, &(*refs)[idx],
                 &ms, &tallies[c])) {
          (*refs)[idx].clear();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Tally& t : tallies) Merge(t, out);
  out->attempted += n;
}

// hit-storm: after the warm-up, kHotReaders connections cycle through the
// hot set closed-loop; every reply must repeat the warm-up's communities
// byte for byte.
bool RunHitStorm(const Plan& plan, const DriveInputs& in,
                 std::vector<double>* setups, Timed* timed, Outcome* out,
                 std::string* error) {
  const std::uint32_t readers =
      static_cast<std::uint32_t>(plan.conn_orders.size());
  ServerProcess server;
  std::vector<std::unique_ptr<Connection>> conns;
  conns.push_back(std::make_unique<Connection>());
  double setup = 0.0;
  if (!StartAndPing(in.served_binary, in.snapshot_path, &server,
                    conns[0].get(), &setup, error) ||
      !OpenConnections(server.port(), readers, &conns, error)) {
    return false;
  }
  setups->push_back(setup);
  std::vector<std::string> refs;
  WarmUp(plan, &conns, readers, &refs, out);
  Checker checker(in.base);
  for (std::size_t idx = 0; idx < refs.size(); ++idx) {
    if (refs[idx].empty()) continue;
    const std::string problem = CheckReply(&checker, plan.queries[idx], refs[idx]);
    if (!problem.empty()) {
      out->Fail(plan.queries[idx].known_fault,
                Describe(plan.queries[idx]) + ": " + problem);
    }
  }
  std::vector<Tally> tallies(readers);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[c];
      std::string reply;
      std::uint64_t id = 1000 + c;
      do {
        for (const std::uint32_t idx : plan.conn_orders[c]) {
          const BenchQuery& q = plan.queries[idx];
          double ms = 0.0;
          id += readers;
          ++tally.answered;
          if (!Ask(conns[c].get(), q, id, &reply, &ms, &tally)) continue;
          tally.samples.push_back({Since(start), ms});
          if (refs[idx].empty() ||
              CommunitiesText(reply) != CommunitiesText(refs[idx])) {
            tally.failures.Fail(q.known_fault,
                                Describe(q) + ": cached answer differs");
          }
        }
      } while (Since(start) < in.seconds);
    });
  }
  for (std::thread& t : threads) t.join();
  timed->elapsed_s = Since(start);
  for (const Tally& t : tallies) {
    timed->answered += t.answered;
    out->attempted += t.answered;
    timed->samples.insert(timed->samples.end(), t.samples.begin(),
                          t.samples.end());
    Merge(t, out);
  }
  timed->peak_rss_mb.push_back(server.PeakRssMb());
  return true;
}

// churn: kHotReaders connections cycle through the hot set while one more
// applies one delta per plan.delta_interval_s. A reply is judged against
// every graph version that was current between its send and its receipt.
bool RunChurn(const Plan& plan, const DriveInputs& in,
              std::vector<double>* setups, Timed* timed, Outcome* out,
              std::string* error) {
  const std::uint32_t readers =
      static_cast<std::uint32_t>(plan.conn_orders.size());
  ServerProcess server;
  std::vector<std::unique_ptr<Connection>> conns;
  conns.push_back(std::make_unique<Connection>());
  double setup = 0.0;
  if (!StartAndPing(in.served_binary, in.snapshot_path, &server,
                    conns[0].get(), &setup, error) ||
      !OpenConnections(server.port(), readers + 1, &conns, error)) {
    return false;
  }
  setups->push_back(setup);
  const std::size_t n = plan.queries.size();
  std::vector<std::string> refs;
  WarmUp(plan, &conns, readers, &refs, out);

  // Distinct answers per hot query, and every reply as (query, answer,
  // first version, last version).
  struct Record {
    std::uint32_t idx;
    std::uint32_t answer;
    std::uint32_t lo;
    std::uint32_t hi;
  };
  struct Reader {
    Tally tally;
    std::vector<std::unordered_map<std::string, std::uint32_t>> answers;
    std::vector<Record> records;
  };
  std::vector<Reader> reader_state(readers);
  for (Reader& r : reader_state) r.answers.resize(n);
  for (std::size_t idx = 0; idx < n; ++idx) {
    if (refs[idx].empty()) continue;
    reader_state[0].answers[idx].emplace(std::string(CommunitiesText(refs[idx])), 0);
    reader_state[0].records.push_back({static_cast<std::uint32_t>(idx), 0, 0, 0});
  }

  std::atomic<std::uint32_t> sent{0}, acked{0};
  std::atomic<bool> admin_done{false};
  std::vector<double> apply_ms;
  Tally admin_tally;
  const std::uint32_t deltas =
      std::min<std::uint32_t>(plan.scheduled_deltas, in.delta_paths.size());
  const Clock::time_point start = Clock::now();
  std::thread admin([&] {
    for (std::uint32_t i = 0; i < deltas; ++i) {
      // Mid-interval, so that each reporting window holds one delta.
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>((i + 0.5) *
                                                    plan.delta_interval_s)));
      sent.store(i + 1);
      std::string reply;
      double ms = 0.0;
      if (!conns[readers]->Exchange(ApplyDeltaLine(1000000 + i, in.delta_paths[i]),
                                    &reply, &ms) ||
          reply.find("\"ok\": true") == std::string::npos) {
        admin_tally.failures.Fail(
            false, "apply_delta failed: " + reply.substr(0, 200));
      } else {
        apply_ms.push_back(ms);
      }
      acked.store(i + 1);
    }
    admin_done.store(true);
  });
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      Reader& state = reader_state[c];
      std::vector<std::uint32_t> last(n, 0xFFFFFFFFu);
      std::vector<std::string_view> last_text(n);
      std::string reply;
      std::uint64_t id = 1000 + c;
      do {
        for (const std::uint32_t idx : plan.conn_orders[c]) {
          const BenchQuery& q = plan.queries[idx];
          double ms = 0.0;
          id += readers;
          const std::uint32_t lo = acked.load();
          ++state.tally.answered;
          if (!Ask(conns[c].get(), q, id, &reply, &ms, &state.tally)) continue;
          const std::uint32_t hi = sent.load();
          state.tally.samples.push_back({Since(start), ms});
          const std::string_view text = CommunitiesText(reply);
          std::uint32_t answer = last[idx];
          if (answer == 0xFFFFFFFFu || text != last_text[idx]) {
            auto [it, added] = state.answers[idx].emplace(
                std::string(text),
                static_cast<std::uint32_t>(state.answers[idx].size()));
            answer = it->second;
            last[idx] = answer;
            last_text[idx] = it->first;
          }
          state.records.push_back({idx, answer, lo, hi});
        }
      } while (!admin_done.load() || Since(start) < in.seconds);
    });
  }
  for (std::thread& t : threads) t.join();
  admin.join();
  if (!apply_ms.empty()) timed->delta_ms.push_back(Quantile(apply_ms, 0.5));
  timed->elapsed_s = Since(start);
  timed->peak_rss_mb.push_back(server.PeakRssMb());
  out->attempted += deltas;
  Merge(admin_tally, out);
  for (const Reader& r : reader_state) {
    timed->answered += r.tally.answered;
    out->attempted += r.tally.answered;
    timed->samples.insert(timed->samples.end(), r.tally.samples.begin(),
                          r.tally.samples.end());
    Merge(r.tally, out);
  }
  conns.clear();
  server.Stop();

  // Answers are interned per reader; give each distinct (query, answer)
  // one global id, texts[g], answering query text_query[g].
  std::vector<std::string_view> texts;
  std::vector<std::uint32_t> text_query;
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           std::uint32_t>
      global_id;  // (reader, query, local id) -> global id
  for (std::size_t idx = 0; idx < n; ++idx) {
    std::map<std::string_view, std::uint32_t> by_text;
    for (std::uint32_t c = 0; c < readers; ++c) {
      for (const auto& [text, local] : reader_state[c].answers[idx]) {
        const auto [it, added] = by_text.emplace(
            text, static_cast<std::uint32_t>(texts.size()));
        if (added) {
          texts.push_back(text);
          text_query.push_back(static_cast<std::uint32_t>(idx));
        }
        global_id[{c, static_cast<std::uint32_t>(idx), local}] = it->second;
      }
    }
  }
  // Distinct (answer, window) pairs with their reply counts.
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           std::uint64_t>
      windows;
  // Replies whose window is one version: (query, version) -> answers.
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::map<std::uint32_t, std::uint64_t>>
      pinned;
  for (std::uint32_t c = 0; c < readers; ++c) {
    for (const Record& rec : reader_state[c].records) {
      const std::uint32_t g = global_id.at({c, rec.idx, rec.answer});
      ++windows[{g, rec.lo, rec.hi}];
      if (rec.lo == rec.hi) ++pinned[{rec.idx, rec.lo}][g];
    }
  }
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, bool>
      passed;
  std::vector<std::vector<Community>> parsed(texts.size());
  std::vector<std::string> parse_error(texts.size());
  std::vector<bool> parsed_ready(texts.size(), false);
  CheckGraph current = *in.base;
  for (std::uint32_t v = 0; v <= deltas; ++v) {
    if (v > 0) current = ApplyEdits(current, in.delta_edits[v - 1]);
    std::unique_ptr<Checker> checker;
    for (const auto& [key, count] : windows) {
      const auto& [g, lo, hi] = key;
      if (v < lo || v > hi || passed[key]) continue;
      if (!parsed_ready[g]) {
        ParseCommunities(texts[g], &parsed[g], &parse_error[g]);
        parsed_ready[g] = true;
      }
      if (!parse_error[g].empty()) continue;
      if (checker == nullptr) checker = std::make_unique<Checker>(&current);
      if (checker->Check(plan.queries[text_query[g]], parsed[g]).empty()) {
        passed[key] = true;
      }
    }
  }
  for (const auto& [key, count] : windows) {
    if (passed[key]) continue;
    const auto& [g, lo, hi] = key;
    const BenchQuery& q = plan.queries[text_query[g]];
    for (std::uint64_t i = 0; i < count; ++i) {
      out->Fail(q.known_fault,
                Describe(q) + ": answer invalid on graph versions " +
                    std::to_string(lo) + ".." + std::to_string(hi));
    }
  }
  // On one graph version, repeated queries must repeat their answer.
  for (const auto& [key, answers] : pinned) {
    if (answers.size() <= 1) continue;
    std::uint64_t total = 0, most = 0;
    for (const auto& [g, count] : answers) {
      total += count;
      most = std::max(most, count);
    }
    const BenchQuery& q = plan.queries[key.first];
    for (std::uint64_t i = most; i < total; ++i) {
      out->Fail(q.known_fault, Describe(q) + ": answers differ on version " +
                                   std::to_string(key.second));
    }
  }
  return true;
}

}  // namespace

double MeasurePing(const std::string& served_binary,
                   const std::string& snapshot, int pings,
                   std::string* error) {
  ServerProcess server;
  Connection conn;
  double setup = 0.0;
  if (!StartAndPing(served_binary, snapshot, &server, &conn, &setup, error)) {
    return -1.0;
  }
  std::vector<double> samples;
  std::string reply;
  for (int i = 0; i < pings; ++i) {
    double ms = 0.0;
    if (!conn.Exchange("{\"id\": 1, \"admin\": \"ping\"}\n", &reply, &ms)) {
      *error = "ping failed";
      return -1.0;
    }
    samples.push_back(ms * 1000.0);
  }
  return Quantile(samples, 0.5);
}

bool Drive(const Plan& plan, const DriveInputs& in, Outcome* out,
           std::string* error) {
  std::vector<double> setups;
  Timed timed;
  for (int i = 0; i < kProbeLaunches; ++i) {
    ServerProcess server;
    Connection conn;
    double setup = 0.0;
    if (!StartAndPing(in.served_binary, in.snapshot_path, &server, &conn,
                      &setup, error)) {
      return false;
    }
    setups.push_back(setup);
    const double apply_ms = ApplyChain(&conn, in.delta_paths, kProbeDeltas, out);
    if (apply_ms < 0) {
      *error = "apply_delta failed on a freshly started server";
      return false;
    }
    timed.delta_ms.push_back(apply_ms);
  }
  bool ok = false;
  if (plan.workload == "solve-mix") {
    ok = RunSolveMix(plan, in, &setups, &timed, out, error);
  } else if (plan.workload == "hit-storm") {
    ok = RunHitStorm(plan, in, &setups, &timed, out, error);
  } else {
    ok = RunChurn(plan, in, &setups, &timed, out, error);
  }
  if (!ok) return false;
  if (timed.samples.empty() || timed.peak_rss_mb.empty()) {
    *error = "the run produced no latency or memory samples";
    return false;
  }
  out->Add("setup_s", Quantile(setups, 0.5), "s");
  double qps = static_cast<double>(timed.answered) / timed.elapsed_s;
  std::vector<double> all_ms;
  for (const Sample& sample : timed.samples) all_ms.push_back(sample.ms);
  double p50 = NearestRank(all_ms, 0.5);
  double p99 = NearestRank(all_ms, 0.99);
  if (plan.workload != "solve-mix") {
    // Hundreds to thousands of requests a second: take each figure per
    // window and report the median window, so that a burst of load from
    // outside the benchmark moves a few windows, not the result. Each
    // churn window holds one delta.
    const double window_s = plan.window_s;
    const auto windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(timed.elapsed_s / window_s));
    std::vector<std::vector<double>> by_window(windows);
    for (const Sample& sample : timed.samples) {
      const auto w = static_cast<std::size_t>(sample.done_s / window_s);
      if (w < windows) by_window[w].push_back(sample.ms);
    }
    std::vector<double> w_qps, w_p50, w_p99;
    for (const std::vector<double>& w : by_window) {
      if (w.empty()) continue;
      w_qps.push_back(static_cast<double>(w.size()) / window_s);
      w_p50.push_back(NearestRank(w, 0.5));
      w_p99.push_back(NearestRank(w, 0.99));
    }
    qps = Quantile(w_qps, 0.5);
    p50 = Quantile(w_p50, 0.5);
    p99 = Quantile(w_p99, 0.5);
  }
  out->Add("qps", qps, "1/s");
  out->Add("p50_ms", p50, "ms");
  out->Add("p99_ms", p99, "ms");
  out->Add("delta_apply_ms", Quantile(timed.delta_ms, 0.5), "ms");
  out->Add("peak_rss_mb",
           *std::max_element(timed.peak_rss_mb.begin(), timed.peak_rss_mb.end()),
           "MiB");
  std::fprintf(stderr,
               "[perfbench] %s seed=%llu: %llu answered in %.2fs, %zu "
               "latency samples\n",
               plan.workload.c_str(),
               static_cast<unsigned long long>(plan.seed),
               static_cast<unsigned long long>(timed.answered),
               timed.elapsed_s, timed.samples.size());
  return true;
}

}  // namespace perfbench
