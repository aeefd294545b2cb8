// ticl_served — streaming network front end over a saved snapshot.
//
// Loads a snapshot once, builds the QueryEngine (core index + LRU result
// cache + thread pool), then listens on a TCP port and answers
// newline-delimited JSON requests: the exact same wire protocol as
// tools/ticl_serve's batch pipe (both are formatted and parsed by
// src/serve/protocol.{h,cc}, so the two front ends cannot drift). See
// src/serve/server.h for the event-loop, backpressure and admission
// control mechanics.
//
//   # one shell
//   ticl_query --generate standin:dblp --save-snapshot dblp.snap \
//       --snapshot-index
//   ticl_served --snapshot dblp.snap --mmap --port 7421 --threads 8
//
//   # another shell (any newline-JSON client works; nc is enough)
//   printf '%s\n' '{"id": 1, "k": 4, "r": 5, "f": "sum"}' \
//     | nc -N 127.0.0.1 7421
//
// Admin commands over the same connection (disable with --no-admin):
//   {"id": "a1", "admin": "apply_delta", "path": "dblp.d1.snap"}
//   {"id": "a2", "admin": "stats"}
//   {"id": "a3", "admin": "drain"}     # graceful shutdown, like SIGTERM
//   {"id": "a4", "admin": "ping"}
//
// SIGTERM/SIGINT start a graceful drain: the listener closes, in-flight
// queries finish, every reply is flushed, then the process exits 0.
//
// Exit status: 0 on clean drain, 1 on usage errors, 2 on IO/bind errors.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>

#include "serve/engine.h"
#include "serve/server.h"

#include "serve_bootstrap.h"

namespace {

constexpr ticl::tools::ToolUsage kUsage = {
    "ticl_served",
    "  --bind ADDR        numeric IPv4 address to bind "
    "(default 127.0.0.1)\n"
    "  --port N           TCP port; 0 picks an ephemeral port "
    "(default 7421)\n"
    "  --max-in-flight N  admission control: queries inside the engine\n"
    "                     at once; excess load is rejected with a JSON\n"
    "                     error (default 256)\n"
    "  --max-in-flight-per-conn N\n"
    "                     fairness cap per connection; 0 = auto\n"
    "                     (max-in-flight / 4, min 1) so one chatty\n"
    "                     client cannot claim every slot (default 0)\n"
    "  --max-connections N  accepted sockets beyond this are closed\n"
    "                     (default 1024)\n"
    "  --no-admin         disable apply_delta/stats/drain/ping admin\n"
    "                     commands\n",
    "Wire protocol: one JSON request per line in, one JSON reply per\n"
    "line out — identical to ticl_serve's batch pipe. See README.\n"};

bool ParseFlag(ticl::tools::ArgReader& args, ticl::ServerOptions* server) {
  const std::string& arg = args.arg();
  if (arg == "--bind") return args.Take(&server->bind_address);
  if (arg == "--port") return args.TakeUnsigned(&server->port);
  if (arg == "--max-in-flight") {
    return args.TakePositive(&server->max_in_flight);
  }
  if (arg == "--max-in-flight-per-conn") {
    return args.TakeUnsigned(&server->max_in_flight_per_conn);
  }
  if (arg == "--max-connections") {
    return args.TakePositive(&server->max_connections);
  }
  if (arg == "--no-admin") {
    server->enable_admin = false;
    return true;
  }
  return args.Unknown();
}

// Signal handlers may only touch this pointer and call RequestDrain
// (atomic flag + eventfd write, both async-signal-safe). main() nulls
// the pointer the moment Serve() returns, before the Server object is
// destroyed, so a late second SIGTERM during engine teardown cannot
// touch a dead object.
std::atomic<ticl::Server*> g_server{nullptr};

void HandleSignal(int) {
  ticl::Server* server = g_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestDrain();
}

}  // namespace

int main(int argc, char** argv) {
  ticl::tools::EngineFlags engine_flags;
  ticl::ServerOptions server_options;
  server_options.port = 7421;  // the library's default is 0 (ephemeral)
  const int parsed = ticl::tools::ParseCommandLine(
      argc, argv, kUsage,
      [&server_options](ticl::tools::ArgReader& args) {
        return ParseFlag(args, &server_options);
      },
      &engine_flags);
  if (parsed != ticl::tools::kServe) return parsed;
  const auto engine = ticl::tools::OpenEngine(engine_flags);
  if (engine == nullptr) return 2;

  std::string error;
  ticl::Server server(engine.get(), server_options);
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  g_server.store(&server, std::memory_order_release);
  struct sigaction action{};
  action.sa_handler = HandleSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  // A peer vanishing mid-write must not kill the process (send() already
  // passes MSG_NOSIGNAL; this covers any stray stdio-to-pipe case).
  std::signal(SIGPIPE, SIG_IGN);

  std::fprintf(stderr,
               "listening on %s:%u (max %zu connections, %zu in-flight "
               "queries, admin %s) — SIGTERM drains gracefully\n",
               server_options.bind_address.c_str(), server.port(),
               server_options.max_connections, server_options.max_in_flight,
               server_options.enable_admin ? "enabled" : "disabled");

  server.Serve();
  // Detach the handlers from the object before it dies; a straggler
  // signal from here on is a no-op instead of a use-after-lifetime.
  g_server.store(nullptr, std::memory_order_release);

  const ticl::ServerStats server_stats = server.stats();
  std::fprintf(
      stderr,
      "drained: %llu connections, %llu queries answered (%llu rejected, "
      "%llu per-conn rejected, %llu invalid, %llu parse errors, %llu "
      "dropped), %s\n",
      static_cast<unsigned long long>(server_stats.connections_accepted),
      static_cast<unsigned long long>(server_stats.responses_sent),
      static_cast<unsigned long long>(server_stats.server_rejected),
      static_cast<unsigned long long>(server_stats.server_rejected_per_conn),
      static_cast<unsigned long long>(server_stats.invalid_queries),
      static_cast<unsigned long long>(server_stats.parse_errors),
      static_cast<unsigned long long>(server_stats.responses_dropped),
      ticl::tools::CacheSummary(engine->stats()).c_str());
  return 0;
}
