// crpd — the multi-tenant crash-resistance discovery daemon.
//
// Binds 127.0.0.1:<port> and serves discovery jobs over the line protocol
// in src/serve/protocol.h. Run it, then drive it with crpc:
//
//   crpd --port 17117 --workers 4 &
//   crpc --port 17117 run alice nginx-1.9.5
//
// Flags:
//   --port N            listen port (default 0 = ephemeral, printed)
//   --workers N         job-engine worker threads (default 2)
//   --max-active N      per-tenant active-job quota (default 8)
//   --rate-max N        per-tenant SUBMITs allowed per window (default 64)
//   --rate-window-ms N  admission rate window (default 1000)
//   --cache 0|1         shared artifact cache (default 1)
//   --jobs N            default intra-job verify parallelism (default 1;
//                       capped at the shared pool's size)
//   --obs-port N        also serve the HTTP telemetry endpoint on this
//                       port (0 = ephemeral, printed): /metrics,
//                       /jobs.json, /tenants.json, /traces.json, ...
//   --step-deadline-ms N   watchdog: flag a step running longer than this
//                          (default 60000; 0 disables the watchdog)
//   --lease-deadline-ms N  watchdog: flag a lease held longer than this
//                          (default 30000)
//
// SIGINT/SIGTERM stop the daemon cleanly (in-flight cells release their
// kernels and cache leases on teardown).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "exec/thread_pool.h"
#include "obs/serve.h"
#include "serve/daemon.h"
#include "util/log.h"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: crpd [--port N] [--workers N] [--max-active N] "
               "[--rate-max N] [--rate-window-ms N] [--cache 0|1] [--jobs N]\n"
               "            [--obs-port N] [--step-deadline-ms N] "
               "[--lease-deadline-ms N]\n");
  std::exit(2);
}

long arg_num(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage();
  char* end = nullptr;
  long v = std::strtol(argv[++i], &end, 10);
  if (end == nullptr || *end != '\0') usage();
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  crp::serve::DaemonOptions opts;
  opts.port = 0;
  bool obs_serve = false;
  crp::u16 obs_port = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0) {
      opts.port = static_cast<crp::u16>(arg_num(argc, argv, i));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      opts.workers = static_cast<int>(arg_num(argc, argv, i));
    } else if (std::strcmp(argv[i], "--max-active") == 0) {
      opts.tenant_max_active = static_cast<size_t>(arg_num(argc, argv, i));
    } else if (std::strcmp(argv[i], "--rate-max") == 0) {
      opts.admission_window_max = static_cast<crp::u64>(arg_num(argc, argv, i));
    } else if (std::strcmp(argv[i], "--rate-window-ms") == 0) {
      opts.admission_window_ns =
          static_cast<crp::u64>(arg_num(argc, argv, i)) * 1'000'000ull;
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      opts.defaults.cache = arg_num(argc, argv, i) != 0;
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      opts.defaults.jobs =
          crp::exec::shared_width(static_cast<int>(arg_num(argc, argv, i)), "crpd");
    } else if (std::strcmp(argv[i], "--obs-port") == 0) {
      obs_serve = true;
      obs_port = static_cast<crp::u16>(arg_num(argc, argv, i));
    } else if (std::strcmp(argv[i], "--step-deadline-ms") == 0) {
      long ms = arg_num(argc, argv, i);
      opts.watchdog = ms > 0;
      opts.watchdog_step_deadline_ns = static_cast<crp::u64>(ms) * 1'000'000ull;
    } else if (std::strcmp(argv[i], "--lease-deadline-ms") == 0) {
      opts.watchdog_lease_deadline_ns =
          static_cast<crp::u64>(arg_num(argc, argv, i)) * 1'000'000ull;
    } else {
      usage();
    }
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  crp::serve::Daemon daemon(opts);
  if (!daemon.start()) {
    std::fprintf(stderr, "crpd: failed to bind port %u\n", unsigned{opts.port});
    return 1;
  }
  // The smoke script greps this exact line for the bound port.
  std::printf("crpd listening on 127.0.0.1:%u\n", unsigned{daemon.port()});
  if (obs_serve) {
    crp::obs::serve::ObsServer& obs = crp::obs::serve::ObsServer::global();
    if (obs.start(obs_port))
      std::printf("crpd telemetry on http://127.0.0.1:%u/\n", unsigned{obs.port()});
    else
      std::fprintf(stderr, "crpd: failed to bind obs port %u\n", unsigned{obs_port});
  }
  std::fflush(stdout);

  while (!g_stop.load() && daemon.running())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  daemon.stop();
  std::printf("crpd: shut down\n");
  return 0;
}
