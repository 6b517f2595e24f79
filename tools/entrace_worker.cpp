// entrace_worker: the network worker of the cluster layer (src/cluster).
//
// Binds a loopback TCP port and serves analysis jobs from an
// entrace_orchestrate coordinator: per connection it announces itself
// (HELLO), accepts a JOB naming a dataset and trace range, streams
// heartbeats while the analysis runs, then streams the .esnap bytes back
// in CRC-framed chunks with a DONE trailer carrying the whole-stream CRC.
//
// --port 0 (the default) asks the kernel for an ephemeral port;
// --port-file publishes whichever port was bound via the tmp+rename idiom,
// which is how a spawner (tests, bench, the coordinator's local slots)
// discovers where to dial without racing the bind.  --once serves one
// connection and exits, or stops early when the process that spawned it
// dies: a local slot runs each attempt in such a child.
//
//   $ entrace_worker --port 7461 --name w0 --verbose
//   $ entrace_worker --port-file w0.port --once
#include <sys/prctl.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cluster/worker.h"
#include "util/cli.h"

using namespace entrace;

namespace {

cluster::WorkerServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();  // an atomic store: signal-safe
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--port-file PATH] [--name S] [--once] [--verbose]\n"
               "  serves cluster analysis jobs on 127.0.0.1 (port 0 = kernel-assigned).\n"
               "  --port-file writes the bound port atomically for spawners to read.\n"
               "  --once exits after serving one connection (local slots, tests).\n",
               argv0);
  return 2;
}

bool write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%u\n", port);
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  cluster::WorkerConfig config;
  std::string port_file;
  bool once = false;

  for (int i = 1; i < argc; ++i) {
    const auto flag_value = [&](const char* name) -> const char* {
      if (std::strcmp(argv[i], name) != 0) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (const char* v = flag_value("--port")) {
      std::uint64_t port = 0;
      if (!cli::parse_uint(v, port) || port > 65535) {
        std::fprintf(stderr, "--port wants 0..65535, got '%s'\n", v);
        return usage(argv[0]);
      }
      config.port = static_cast<std::uint16_t>(port);
    } else if (const char* v = flag_value("--port-file")) {
      port_file = v;
    } else if (const char* v = flag_value("--name")) {
      config.name = v;
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      config.verbose = true;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    cluster::WorkerServer server(config);
    g_server = &server;
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGPIPE, SIG_IGN);
    // A --once worker serves one attempt of the process that spawned it,
    // which dials it as soon as the port file appears.  If that process
    // dies first nobody ever will, so its death stops this one too.
    if (once) ::prctl(PR_SET_PDEATHSIG, SIGTERM);

    if (!port_file.empty() && !write_port_file(port_file, server.port())) {
      std::fprintf(stderr, "worker: cannot write port file %s\n", port_file.c_str());
      return 2;
    }
    // A --once child belongs to a coordinator that reads the port file;
    // only a long-lived worker announces itself unasked.
    if (!once || config.verbose) {
      std::fprintf(stderr, "[%s] listening on 127.0.0.1:%u\n", config.name.c_str(), server.port());
    }

    if (once) {
      while (!server.stopping() && !server.serve_one(100)) {
      }
    } else {
      server.serve();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker: %s\n", e.what());
    return 2;
  }
  return 0;
}
