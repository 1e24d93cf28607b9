// gangd: the gang-model evaluation daemon.
//
// Reads NDJSON requests (one JSON object per line) and answers one JSON
// response per line. With --port=0 (the default) the transport is
// stdin/stdout, so a shell pipeline is a complete session:
//
//   echo '{"op":"solve","system":{...}}' | gangd
//
// With --port=N (or --port=auto for an ephemeral port, announced via
// --port-file) it listens on 127.0.0.1 and serves many connections
// concurrently on a poll event loop: requests from different clients
// overlap on the executor pool, identical in-flight solves coalesce
// into one execution, and load beyond --queue-limit is shed with
// structured {"error":{"type":"overloaded"}} responses. The result
// cache and counters persist across connections — and across restarts,
// with --cache-save/--cache-load. Either way a one-line session summary
// goes to stderr at exit.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Cli cli("gangd",
                    "NDJSON evaluation service for the gang-scheduling "
                    "model (ops: solve, solve_batch, sweep, tune, stats, "
                    "shutdown)");
  cli.add_flag("threads", "1",
               "concurrency inside a request (sweep points, per-class "
               "chains); results are bitwise identical at any value");
  cli.add_flag("cache", "256", "LRU result-cache capacity (0 disables)");
  cli.add_flag("port", "0",
               "TCP port on 127.0.0.1; 0 serves stdin/stdout, 'auto' "
               "binds an ephemeral port (see --port-file)");
  cli.add_flag("port-file", "",
               "write the bound port to FILE once listening (how "
               "scripts find an --port=auto daemon)");
  cli.add_flag("workers", "0",
               "executor threads — requests served concurrently; 0 "
               "sizes to the machine");
  cli.add_flag("queue-limit", "64",
               "admitted-but-unanswered request cap; excess load is "
               "shed with a structured 'overloaded' error");
  cli.add_flag("max-conns", "256",
               "concurrent connection cap (beyond it, connectors wait "
               "in the kernel backlog)");
  cli.add_flag("max-line", "1048576",
               "request line byte cap; longer lines get one structured "
               "error and the connection closes");
  cli.add_flag("coalesce", "1",
               "attach identical concurrent solves to one in-flight "
               "execution instead of solving twice");
  cli.add_flag("warm-start", "1",
               "warm-start cache misses from a structurally identical "
               "prior solve (per-request \"warm_start\" overrides)");
  cli.add_flag("cache-load", "",
               "warm-boot the result cache from a --cache-save snapshot "
               "(a missing file is a cold start, not an error)");
  cli.add_flag("cache-save", "",
               "persist the result cache and warm-start index to FILE "
               "at exit");
  cli.add_flag("deterministic", "0",
               "omit wall-clock fields from responses so output is "
               "byte-stable across runs");
  cli.add_flag("obs", "1",
               "record runtime metrics (the 'stats' op then returns the "
               "full snapshot unless --deterministic=1)");
  cli.add_flag("trace-out", "",
               "write a Chrome trace-event JSON (chrome://tracing, "
               "Perfetto) of the session's spans to FILE at exit");
  if (!cli.parse(argc, argv)) return 1;

  gs::serve::ServiceOptions options;
  options.num_threads = cli.get_int("threads");
  const int cache = cli.get_int("cache");
  if (cache < 0) {
    std::cerr << "gangd: --cache must be >= 0\n";
    return 1;
  }
  options.cache_capacity = static_cast<std::size_t>(cache);
  options.warm_start = cli.get_bool("warm-start");
  options.deterministic = cli.get_bool("deterministic");

  const std::string trace_out = cli.get_string("trace-out");
  gs::obs::ObsOptions obs_opts;
  obs_opts.metrics = cli.get_bool("obs");
  obs_opts.trace = !trace_out.empty();
  gs::obs::configure(obs_opts);

  const auto dump_trace = [&trace_out] {
    if (trace_out.empty()) return;
    const std::size_t n = gs::obs::write_trace_file(trace_out);
    std::cerr << "gangd: wrote " << n << " trace events to " << trace_out
              << "\n";
  };

  gs::serve::EvalService service(options);

  const std::string cache_load = cli.get_string("cache-load");
  if (!cache_load.empty()) {
    if (!file_exists(cache_load)) {
      std::cerr << "gangd: no cache snapshot at " << cache_load
                << ", starting cold\n";
    } else {
      try {
        const std::size_t n = service.load_cache_file(cache_load);
        std::cerr << "gangd: warm-booted " << n << " cache entries from "
                  << cache_load << "\n";
      } catch (const gs::Error& e) {
        std::cerr << "gangd: " << e.what() << "\n";
        return 1;
      }
    }
  }

  const std::string port_flag = cli.get_string("port");
  const std::string port_file = cli.get_string("port-file");
  int port = 0;
  if (port_flag == "auto") {
    port = -1;  // sentinel: ephemeral
  } else {
    try {
      port = cli.get_int("port");
    } catch (const gs::Error&) {
      std::cerr << "gangd: --port must be an integer, 0, or 'auto'\n";
      return 1;
    }
  }

  int exit_code = 0;
  try {
    if (port == 0) {
      gs::serve::serve_stream(service, std::cin, std::cout);
    } else {
      gs::serve::TcpOptions topts;
      topts.port = port < 0 ? 0 : port;
      topts.max_connections =
          static_cast<std::size_t>(std::max(1, cli.get_int("max-conns")));
      topts.max_line =
          static_cast<std::size_t>(std::max(1, cli.get_int("max-line")));
      topts.dispatch.workers = cli.get_int("workers");
      topts.dispatch.queue_limit =
          static_cast<std::size_t>(std::max(1, cli.get_int("queue-limit")));
      topts.dispatch.coalesce = cli.get_bool("coalesce");
      topts.on_listen = [&port_file](int bound) {
        if (port_file.empty()) return;
        // Write then rename so a polling reader never sees a partial
        // file.
        const std::string tmp = port_file + ".tmp";
        std::ofstream out(tmp);
        out << bound << "\n";
        out.close();
        std::rename(tmp.c_str(), port_file.c_str());
      };
      gs::serve::serve_tcp(service, topts);
    }
  } catch (const gs::Error& e) {
    std::cerr << "gangd: " << e.what() << "\n";
    exit_code = 1;
  }

  const std::string cache_save = cli.get_string("cache-save");
  if (!cache_save.empty()) {
    try {
      const std::size_t n = service.save_cache_file(cache_save);
      std::cerr << "gangd: saved " << n << " cache entries to " << cache_save
                << "\n";
    } catch (const gs::Error& e) {
      std::cerr << "gangd: " << e.what() << "\n";
      exit_code = 1;
    }
  }

  std::cerr << service.summary() << "\n";
  dump_trace();
  return exit_code;
}
