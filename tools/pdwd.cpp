// pdwd — the resident wash-optimization daemon (DESIGN.md §14).
//
//   pdwd --socket /tmp/pdwd.sock [options]   # serve a unix-domain socket
//   pdwd --stdio [options]                   # serve stdin/stdout (pipes)
//
// Options:
//   --lanes N          concurrent solver lanes                  (default 2)
//   --queue N          admission-queue capacity                 (default 16)
//   --threads N        shared pool width, 0 = hardware          (default 0)
//   --route-cache N    shared route-cache capacity              (default 4096)
//   --plan-cache N     plan-cache capacity                      (default 256)
//   --budget S         default scheduling-ILP budget, seconds   (default 4)
//   --budget-nodes N   default scheduling-ILP node cap  (default: the stage's)
//   --path-budget S    per-operation path-ILP budget, seconds   (default 1)
//   --slow S           slow-request log threshold, seconds      (default 5)
//   --metrics-out F    write a pdw-metrics-1 export on exit
//   --flight-out F     flight-record budget-capped solves to F (JSONL)
//   --log-level L      trace | debug | info | warn | error | off
//
// The daemon exits after a `{"schema":"pdw-req-1","type":"shutdown"}`
// request (in-flight solves drain first) or, in --stdio mode, at EOF.
// There is no cut-policy flag: the MIP search adds no root cuts, and a
// request's `cuts` key, like its `engine` key, is ignored.
// See README "Running pdwd" for client one-liners.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "obs/metrics.h"
#include "service/daemon.h"
#include "service/server.h"
#include "util/logging.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pdwd (--socket PATH | --stdio) [--lanes N] "
               "[--queue N] [--threads N]\n"
               "            [--route-cache N] [--plan-cache N] [--budget S] "
               "[--budget-nodes N]\n"
               "            [--path-budget S] [--slow S]\n"
               "            [--metrics-out FILE] [--flight-out FILE] "
               "[--log-level LEVEL]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A resident daemon must outlive its clients: a peer that disconnects
  // before reading its response would otherwise SIGPIPE-kill the process.
  // Socket writes also pass MSG_NOSIGNAL, but stdio mode writes to a pipe.
  std::signal(SIGPIPE, SIG_IGN);
  std::string socket_path, metrics_out, log_level;
  bool stdio = false;
  pdw::service::DaemonOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (arg != flag) return nullptr;
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--stdio") {
      stdio = true;
    } else if (const char* v = value("--socket")) {
      socket_path = v;
    } else if (const char* v = value("--lanes")) {
      options.lanes = std::atoi(v);
    } else if (const char* v = value("--queue")) {
      options.queue_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--threads")) {
      options.threads = std::atoi(v);
    } else if (const char* v = value("--route-cache")) {
      options.route_cache_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--plan-cache")) {
      options.plan_cache_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--budget")) {
      options.default_budget_s = std::atof(v);
    } else if (const char* v = value("--budget-nodes")) {
      options.default_budget_nodes = std::atoll(v);
    } else if (const char* v = value("--path-budget")) {
      options.path_budget_s = std::atof(v);
    } else if (const char* v = value("--slow")) {
      options.slow_request_seconds = std::atof(v);
    } else if (const char* v = value("--metrics-out")) {
      metrics_out = v;
    } else if (const char* v = value("--flight-out")) {
      options.flight.enabled = true;
      options.flight.path = v;
      options.flight.dump_on_limit = true;
    } else if (const char* v = value("--log-level")) {
      log_level = v;
    } else {
      return usage();
    }
  }
  if (!stdio && socket_path.empty()) return usage();
  if (stdio && !socket_path.empty()) {
    std::fprintf(stderr, "pdwd: --socket and --stdio are exclusive\n");
    return 2;
  }
  if (!log_level.empty())
    pdw::util::setLogLevel(pdw::util::parseLogLevel(log_level));

  int exit_code = 0;
  {
    pdw::service::Daemon daemon(options);
    if (stdio) {
      const std::size_t lines =
          pdw::service::serveStdio(daemon, std::cin, std::cout);
      std::fprintf(stderr, "pdwd: served %zu request(s) over stdio\n", lines);
    } else {
      try {
        pdw::service::SocketServer server(daemon, socket_path);
        server.run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "pdwd: %s\n", e.what());
        exit_code = 1;
      }
    }
    daemon.shutdown();
  }

  if (!metrics_out.empty() &&
      !pdw::obs::Registry::instance().writeJson(metrics_out)) {
    std::fprintf(stderr, "pdwd: failed to write metrics to %s\n",
                 metrics_out.c_str());
    exit_code = 1;
  }
  return exit_code;
}
