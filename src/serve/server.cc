#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "graph/graph_delta.h"

namespace ticl {

namespace {

/// epoll user-data values for the two non-connection descriptors;
/// connection ids start above them.
constexpr std::uint64_t kWakeToken = 0;
constexpr std::uint64_t kListenToken = 1;

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

std::string U64(std::uint64_t value) { return std::to_string(value); }

}  // namespace

/// Per-connection state. `in` accumulates bytes until a newline; `out`
/// holds formatted replies awaiting the socket. `line_number` feeds the
/// synthesized ids of id-less requests. `paused` means EPOLLIN is off —
/// either write backpressure, EOF already seen, or drain.
struct Server::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  std::string in;
  std::string out;
  /// Bytes of `out` already written to the socket. A cursor instead of
  /// front-erasing per send: a backpressured buffer is megabytes, and
  /// repeated memmove on the event-loop thread would stall every other
  /// connection.
  std::size_t out_offset = 0;
  std::size_t in_flight = 0;
  std::size_t line_number = 0;
  bool paused = false;
  bool peer_closed = false;
  /// An oversized line was answered with an error; swallow bytes until
  /// the next newline to resynchronize.
  bool discarding = false;

  std::size_t pending_out() const { return out.size() - out_offset; }
};

Server::CompletionQueue::~CompletionQueue() {
  if (wake_fd >= 0) ::close(wake_fd);
}

void Server::CompletionQueue::Push(std::uint64_t conn_id, std::string line) {
  {
    std::lock_guard<std::mutex> lock(mutex);
    items.emplace_back(conn_id, std::move(line));
  }
  Wake();
}

void Server::CompletionQueue::Wake() {
  // Lock-free and async-signal-safe: RequestDrain calls this from signal
  // context.
  if (wake_fd < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t written =
      ::write(wake_fd, &one, sizeof(one));
}

Server::Server(QueryEngine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      per_conn_cap_(options_.max_in_flight_per_conn != 0
                        ? options_.max_in_flight_per_conn
                        : std::max<std::size_t>(
                              options_.max_in_flight / 4, 1)),
      completions_(std::make_shared<CompletionQueue>()) {}

Server::~Server() {
  for (auto& [id, conn] : connections_) ::close(conn->fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  // completions_->wake_fd belongs to the queue, which dies with the last
  // engine callback still holding a reference — a completion racing this
  // destructor writes to a live eventfd and is dropped, instead of
  // writing to a recycled descriptor.
}

bool Server::Start(std::string* error) {
  if (started_) {
    *error = "server already started";
    return false;
  }
  completions_->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (completions_->wake_fd < 0) {
    *error = Errno("eventfd");
    return false;
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    *error = Errno("epoll_create1");
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    *error = Errno("socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    *error = "invalid bind address (numeric IPv4 expected): " +
             options_.bind_address;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    *error = Errno("cannot bind " + options_.bind_address + ":" +
                   std::to_string(options_.port));
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    *error = Errno("listen");
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    *error = Errno("getsockname");
    return false;
  }
  port_ = ntohs(bound.sin_port);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, completions_->wake_fd, &ev) !=
      0) {
    *error = Errno("epoll_ctl(wake)");
    return false;
  }
  ev.data.u64 = kListenToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    *error = Errno("epoll_ctl(listen)");
    return false;
  }
  started_ = true;
  return true;
}

void Server::RequestDrain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  completions_->Wake();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Server::Serve() {
  if (!started_) return;
  epoll_event events[64];
  while (!done_) {
    if (drain_requested_.load(std::memory_order_relaxed) && !draining_) {
      BeginDrain();
    }
    MaybeFinishDrain();
    if (done_) break;
    // While draining, bound the wait by the grace deadline: one peer
    // that never reads its replies must not hold shutdown hostage.
    int timeout_ms = -1;
    if (draining_ && options_.drain_grace_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= drain_deadline_) {
        ForceCloseStragglers();
        MaybeFinishDrain();
        if (done_) break;
        // Still waiting on in-flight solves (compute-bound, they
        // finish); tick so a reply that stalls post-deadline is also
        // force-closed promptly.
        timeout_ms = 50;
      } else {
        timeout_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                drain_deadline_ - now)
                .count() +
            1);
      }
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sane left to do
    }
    if (n == 0) continue;  // drain deadline tick
    for (int i = 0; i < n; ++i) {
      const std::uint64_t token = events[i].data.u64;
      if (token == kWakeToken) {
        DrainCompletions();
        continue;
      }
      if (token == kListenToken) {
        AcceptNew();
        continue;
      }
      const auto it = connections_.find(token);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection* conn = it->second.get();
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        CloseConnection(token);
        continue;
      }
      if (events[i].events & EPOLLIN) {
        HandleReadable(conn);
        if (connections_.find(token) == connections_.end()) continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(conn);
    }
  }
}

void Server::AcceptNew() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: the backlog entry stays pending, and
        // level-triggered EPOLLIN would re-fire forever. Park the
        // listener until a connection closes.
        PauseListener();
      }
      return;  // EAGAIN, or a transient accept failure — next event retries
    }
    if (draining_ || connections_.size() >= options_.max_connections) {
      ::close(fd);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.connections_refused;
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.connections_accepted;
    }
    connections_.emplace(conn->id, std::move(conn));
  }
}

void Server::HandleReadable(Connection* conn) {
  const std::uint64_t conn_id = conn->id;
  while (!conn->paused) {
    char buffer[16384];
    const ssize_t got = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (got > 0) {
      conn->in.append(buffer, static_cast<std::size_t>(got));
      ProcessInput(conn);
      continue;
    }
    if (got == 0) {
      conn->peer_closed = true;
      // A final line without a trailing newline is still a request
      // (batch pipes end that way); an oversized tail being discarded is
      // not.
      if (!conn->in.empty() && !conn->discarding && !draining_) {
        std::string line;
        line.swap(conn->in);
        HandleLine(conn, line);
      }
      conn->in.clear();
      if (conn->in_flight == 0 && conn->pending_out() == 0) {
        CloseConnection(conn_id);
        return;
      }
      // Stop polling for input: level-triggered EPOLLIN would spin on
      // EOF forever. Replies still flush via EPOLLOUT.
      PauseReading(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConnection(conn_id);
    return;
  }
}

void Server::ReportOversized(Connection* conn) {
  ++conn->line_number;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.parse_errors;
    ++stats_.oversized_lines;
  }
  Reply(conn, FormatErrorLine(U64(conn->line_number),
                              "line exceeds " + U64(kMaxRequestLineBytes) +
                                  " bytes",
                              kErrorKindParse));
}

void Server::ProcessInput(Connection* conn) {
  // Consume complete lines behind a cursor and erase the prefix once:
  // per-line front-erase would be quadratic in lines-per-chunk, on the
  // event-loop thread.
  std::size_t consumed = 0;
  while (!conn->paused) {
    const std::size_t newline = conn->in.find('\n', consumed);
    if (newline == std::string::npos) break;
    std::string line = conn->in.substr(consumed, newline - consumed);
    consumed = newline + 1;
    if (conn->discarding) {
      // Tail of the oversized line (already counted and answered).
      conn->discarding = false;
      continue;
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.size() > kMaxRequestLineBytes) {
      ReportOversized(conn);
      continue;
    }
    HandleLine(conn, line);
    if (conn->in.empty()) {
      // BeginDrain (reachable through an admin line) dropped the buffer
      // under us; nothing left to consume.
      consumed = 0;
      break;
    }
  }
  if (consumed > 0) conn->in.erase(0, consumed);
  if (conn->paused) return;
  if (conn->discarding) {
    // Still inside an oversized line: swallow what has streamed in.
    conn->in.clear();
  } else if (conn->in.size() > kMaxRequestLineBytes) {
    // Over the cap with no newline in sight: answer now (same verdict a
    // complete over-limit line gets, so the reply does not depend on how
    // TCP chunked the bytes), swallow the rest as it arrives.
    ReportOversized(conn);
    conn->discarding = true;
    conn->in.clear();
  }
}

void Server::HandleLine(Connection* conn, const std::string& line) {
  ++conn->line_number;
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] == '#') return;
  ParsedRequest request;
  std::string error;
  if (!ParseRequestLine(line, conn->line_number, &request, &error)) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.parse_errors;
    }
    Reply(conn, FormatErrorLine(request.id_json, error, kErrorKindParse));
    return;
  }
  if (draining_) {
    // Parsed first so the reply echoes the request's own id — clients
    // correlate by id, and a synthesized line number would orphan this
    // error.
    Reply(conn, FormatErrorLine(request.id_json, "server is draining",
                                kErrorKindDraining));
    return;
  }
  if (request.kind == ParsedRequest::Kind::kAdmin) {
    HandleAdmin(conn, request);
    return;
  }
  SubmitQuery(conn, request);
}

void Server::SubmitQuery(Connection* conn, const ParsedRequest& request) {
  const std::string problem = engine_->Validate(request.query);
  if (!problem.empty()) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.invalid_queries;
    }
    Reply(conn, FormatErrorLine(request.id_json, "invalid query: " + problem,
                                kErrorKindInvalid));
    return;
  }
  if (total_in_flight_ >= options_.max_in_flight) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.server_rejected;
    }
    Reply(conn,
          FormatErrorLine(request.id_json,
                          "server at capacity: " + U64(total_in_flight_) +
                              " queries in flight",
                          kErrorKindRejected));
    return;
  }
  // Fairness: global slots are free, but this connection already holds
  // its share of them — reject it (distinct message, so its operator
  // knows which limit bit) instead of letting one chatty client claim
  // every slot and starve the quiet ones.
  if (conn->in_flight >= per_conn_cap_) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.server_rejected_per_conn;
    }
    Reply(conn,
          FormatErrorLine(request.id_json,
                          "connection at capacity: " + U64(conn->in_flight) +
                              " queries in flight on this connection",
                          kErrorKindRejected));
    return;
  }
  ++total_in_flight_;
  ++conn->in_flight;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries_submitted;
  }
  // The callback owns everything it touches: a shared_ptr keeps the
  // completion queue alive past any server teardown, and the reply is
  // built on the worker thread, off the event loop — a per-request
  // header around the answer's preformatted bytes, so a cache hit copies
  // them once and formats nothing. It fires exactly once even when the
  // solve throws (null result + error message), so the in-flight slot is
  // always returned.
  engine_->Submit(
      request.query,
      [completions = completions_, conn_id = conn->id,
       id_json = request.id_json,
       query = request.query](EngineResponse response) {
        std::string line =
            response.result != nullptr
                ? FormatResultLine(id_json, query,
                                   response.result->stats.elapsed_seconds,
                                   response.cache_hit,
                                   *response.communities_json)
                : FormatErrorLine(id_json,
                                  "internal error: " +
                                      (response.error.empty()
                                           ? std::string("solver failed")
                                           : response.error),
                                  kErrorKindInternal);
        completions->Push(conn_id, std::move(line));
      });
}

void Server::HandleAdmin(Connection* conn, const ParsedRequest& request) {
  if (!options_.enable_admin) {
    Reply(conn, FormatErrorLine(request.id_json,
                                "admin commands are disabled on this server",
                                kErrorKindAdmin));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.admin_commands;
  }
  if (request.admin_verb == "ping") {
    Reply(conn, "{\"id\": " + request.id_json +
                    ", \"admin\": \"ping\", \"ok\": true}\n");
    return;
  }
  if (request.admin_verb == "drain") {
    // The acknowledgement is appended before the drain starts, so it is
    // flushed as part of the drain itself.
    Reply(conn, "{\"id\": " + request.id_json +
                    ", \"admin\": \"drain\", \"ok\": true}\n");
    drain_requested_.store(true, std::memory_order_relaxed);
    BeginDrain();
    return;
  }
  if (request.admin_verb == "stats") {
    const EngineStats engine_stats = engine_->stats();
    const ServerStats server_stats = stats();
    std::string reply = "{\"id\": " + request.id_json +
                        ", \"admin\": \"stats\", \"ok\": true, \"graph\": "
                        "{\"n\": " +
                        U64(engine_->graph().num_vertices()) + ", \"m\": " +
                        U64(engine_->graph().num_edges()) + "}, ";
    reply += "\"engine\": {\"queries\": " + U64(engine_stats.queries) +
             ", \"cache_hits\": " + U64(engine_stats.cache_hits) +
             ", \"cache_misses\": " + U64(engine_stats.cache_misses) +
             ", \"cache_coalesced\": " + U64(engine_stats.cache_coalesced) +
             ", \"cache_evictions\": " + U64(engine_stats.cache_evictions) +
             ", \"cache_uncacheable\": " +
             U64(engine_stats.cache_uncacheable) +
             ", \"cache_negative_hits\": " +
             U64(engine_stats.cache_negative_hits) +
             ", \"cache_partial_kept\": " +
             U64(engine_stats.cache_partial_kept) +
             ", \"cache_partial_evicted\": " +
             U64(engine_stats.cache_partial_evicted) +
             ", \"cache_charge\": " + U64(engine_stats.cache_charge) +
             ", \"cache_bytes\": " + U64(engine_stats.cache_bytes) +
             ", \"deltas_applied\": " + U64(engine_stats.deltas_applied) +
             "}, ";
    reply += "\"server\": {\"connections\": " + U64(connections_.size()) +
             ", \"in_flight\": " + U64(total_in_flight_) +
             ", \"connections_accepted\": " +
             U64(server_stats.connections_accepted) +
             ", \"connections_refused\": " +
             U64(server_stats.connections_refused) +
             ", \"queries_submitted\": " +
             U64(server_stats.queries_submitted) +
             ", \"responses_sent\": " + U64(server_stats.responses_sent) +
             ", \"responses_dropped\": " +
             U64(server_stats.responses_dropped) +
             ", \"parse_errors\": " + U64(server_stats.parse_errors) +
             ", \"invalid_queries\": " + U64(server_stats.invalid_queries) +
             ", \"server_rejected\": " + U64(server_stats.server_rejected) +
             ", \"server_rejected_per_conn\": " +
             U64(server_stats.server_rejected_per_conn) +
             ", \"admin_commands\": " + U64(server_stats.admin_commands) +
             ", \"oversized_lines\": " + U64(server_stats.oversized_lines) +
             "}}\n";
    Reply(conn, std::move(reply));
    return;
  }
  // apply_delta: load from disk, verify parentage, swap live. Runs on
  // the event-loop thread — intake pauses for the maintenance duration
  // (single-writer by construction), in-flight solves continue on the
  // pool against the pinned pre-delta state.
  GraphDelta delta;
  std::string error;
  if (!engine_->ApplyDeltaSnapshotFile(request.admin_path, &error, &delta)) {
    Reply(conn, FormatErrorLine(request.id_json, error, kErrorKindAdmin));
    return;
  }
  Reply(conn, "{\"id\": " + request.id_json +
                  ", \"admin\": \"apply_delta\", \"ok\": true, "
                  "\"inserts\": " +
                  U64(delta.insert_edges.size()) + ", \"deletes\": " +
                  U64(delta.delete_edges.size()) + ", \"reweights\": " +
                  U64(delta.weight_updates.size()) +
                  ", \"deltas_applied\": " +
                  U64(engine_->stats().deltas_applied) + "}\n");
}

void Server::Reply(Connection* conn, std::string line) {
  if (conn->pending_out() == 0) {
    // The common case: nothing queued, so take the line's buffer instead
    // of copying a possibly megabyte-sized reply on the event loop.
    conn->out = std::move(line);
    conn->out_offset = 0;
  } else {
    conn->out += line;
  }
  if (conn->pending_out() > options_.max_write_buffer_bytes) {
    // Write backpressure: stop consuming requests from a peer that is
    // not consuming replies; the kernel receive buffer then fills and
    // the client's send() blocks — pressure propagates to the source.
    PauseReading(conn);
  }
  UpdateEpoll(conn);
}

void Server::DrainCompletions() {
  std::uint64_t counter = 0;
  [[maybe_unused]] const ssize_t got =
      ::read(completions_->wake_fd, &counter, sizeof(counter));
  std::deque<std::pair<std::uint64_t, std::string>> items;
  {
    std::lock_guard<std::mutex> lock(completions_->mutex);
    items.swap(completions_->items);
  }
  for (auto& [conn_id, line] : items) {
    if (total_in_flight_ > 0) --total_in_flight_;
    const auto it = connections_.find(conn_id);
    if (it == connections_.end()) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.responses_dropped;
      continue;
    }
    Connection* conn = it->second.get();
    if (conn->in_flight > 0) --conn->in_flight;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.responses_sent;
    }
    Reply(conn, std::move(line));
  }
}

void Server::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  drain_deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.drain_grace_ms);
  if (listen_fd_ >= 0) {
    // Late connections are refused at the kernel: nothing is listening.
    if (!listener_paused_) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& [id, conn] : connections_) {
    // A partial line that never got its newline was never an accepted
    // request; drop it. Accepted (submitted) queries run to completion.
    conn->in.clear();
    conn->discarding = false;
    PauseReading(conn.get());
  }
}

void Server::MaybeFinishDrain() {
  if (!draining_) return;
  std::vector<std::uint64_t> flushed;
  for (const auto& [id, conn] : connections_) {
    if (conn->in_flight == 0 && conn->pending_out() == 0) {
      flushed.push_back(id);
    }
  }
  for (const std::uint64_t id : flushed) CloseConnection(id);
  // Queries of already-closed connections still count: wait them out so
  // engine callbacks never outlive Serve() unexpectedly.
  if (connections_.empty() && total_in_flight_ == 0) done_ = true;
}

void Server::HandleWritable(Connection* conn) {
  const std::uint64_t conn_id = conn->id;
  while (conn->pending_out() > 0) {
    const ssize_t sent =
        ::send(conn->fd, conn->out.data() + conn->out_offset,
               conn->pending_out(), MSG_NOSIGNAL);
    if (sent > 0) {
      conn->out_offset += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (sent < 0 && errno == EINTR) continue;
    CloseConnection(conn_id);
    return;
  }
  if (conn->out_offset == conn->out.size()) {
    conn->out.clear();
    conn->out_offset = 0;
  } else if (conn->out_offset > (1u << 20)) {
    // Partial flush with a megabyte of dead prefix: compact once.
    conn->out.erase(0, conn->out_offset);
    conn->out_offset = 0;
  }
  if (conn->pending_out() == 0) {
    if (conn->paused && !draining_ && !conn->peer_closed) {
      // (peer_closed needs no resume: the EOF path already consumed or
      // dropped everything the socket will ever deliver.)
      ResumeReading(conn);
    }
    if ((conn->peer_closed || draining_) && conn->in_flight == 0 &&
        conn->pending_out() == 0) {
      CloseConnection(conn_id);
      return;
    }
  }
  UpdateEpoll(conn);
}

void Server::ForceCloseStragglers() {
  // Only connections whose peer has stopped *reading*: an unflushed
  // reply past the grace deadline is on the client. In-flight solves
  // are compute-bound and always waited out — a slow query is not a
  // reason to drop its (still deliverable) answer.
  std::vector<std::uint64_t> stragglers;
  for (const auto& [id, conn] : connections_) {
    if (conn->pending_out() > 0) stragglers.push_back(id);
  }
  if (!stragglers.empty()) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.drain_forced_closes += stragglers.size();
  }
  for (const std::uint64_t id : stragglers) CloseConnection(id);
}

void Server::PauseListener() {
  if (listener_paused_ || listen_fd_ < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  listener_paused_ = true;
}

void Server::ResumeListener() {
  if (!listener_paused_ || listen_fd_ < 0 || draining_) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0) {
    listener_paused_ = false;
  }
}

void Server::CloseConnection(std::uint64_t conn_id) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  connections_.erase(it);
  // A freed descriptor may unblock an accept4 that hit EMFILE.
  ResumeListener();
}

void Server::PauseReading(Connection* conn) {
  if (conn->paused) return;
  conn->paused = true;
  UpdateEpoll(conn);
}

void Server::ResumeReading(Connection* conn) {
  if (!conn->paused) return;
  conn->paused = false;
  // Lines buffered behind the pause first — they may immediately
  // re-pause us.
  ProcessInput(conn);
  UpdateEpoll(conn);
}

void Server::UpdateEpoll(Connection* conn) {
  epoll_event ev{};
  ev.events = 0;
  if (!conn->paused) ev.events |= EPOLLIN;
  if (conn->pending_out() > 0) ev.events |= EPOLLOUT;
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

}  // namespace ticl
