// mobitherm_serve: the NDJSON simulation service, on stdin/stdout or a
// TCP socket.
//
// One JSON request per line, one JSON response per line:
//
//   $ cat requests.ndjson
//   {"op":"submit","scenario":"nexus","app":"paperio","duration_s":5}
//   {"op":"wait","job":1}
//   {"op":"result","job":1}
//   {"op":"stats"}
//   $ ./mobitherm_serve < requests.ndjson
//
// With --listen the same protocol is served to many concurrent loopback
// clients through the epoll front end (service/net_server.h); the bound
// port is announced as a JSON line on stdout so callers can pass
// --listen 0 for an ephemeral port:
//
//   $ ./mobitherm_serve --listen 0 --workers 4
//   {"event":"listening","host":"127.0.0.1","port":37201}
//
// Every request goes through one SimService: one job queue, one worker
// pool and one result cache.
//
// Flags (an integer flag outside its range is a usage error, exit 2):
//   --workers N          worker threads, in [1, 1024] (default 1)
//   --queue N            job-queue capacity, in [0, 2^53] (default 16)
//   --cache N            result-cache entries, in [0, 2^53] (default 64;
//                        0 disables)
//   --deadline SECONDS   default per-job wall-clock deadline (0 = none;
//                        at most kMaxWaitSeconds, one day)
//   --retries N          execution attempts per job, in [1, 1024]
//                        (default 3)
//   --fault SPEC         arm deterministic fault injection, e.g.
//                        "seed=7,crash_before=0.2,corrupt=0.5,latency_s=0.01"
//                        (sites: admission, crash_before, crash_after,
//                        corrupt, latency, malformed; see util/fault.h)
//   --listen PORT        serve a TCP socket on 127.0.0.1:PORT, in
//                        [0, 65535], instead of stdin/stdout (0 = pick an
//                        ephemeral port)
//   --shards 1           accepted and ignored, for old command lines;
//                        sharding was removed, so any other value is a
//                        usage error (exit 2)
//   --packs DIR          load every workload pack (*.json) in DIR on top
//                        of the built-in "synthetic" stressor pack; pack
//                        apps are requested as "app":"<pack>/<app>". A
//                        malformed pack aborts startup (exit 2) — nothing
//                        registers partially.
//
// scripts/serve_client.py wraps this binary for interactive use, the CI
// cache smoke test (--smoke) and the fault-injection smoke test
// (--fault-smoke) — over either transport.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "service/net_server.h"
#include "service/scenario_registry.h"
#include "service/server.h"
#include "service/service.h"
#include "util/fault.h"
#include "workload/pack.h"
#include "workload/synthetic.h"

namespace {

constexpr double kMaxWorkers = 1024;
constexpr double kMaxRetries = 1024;
/// Capacities stay exact as doubles, like the protocol's integer fields.
constexpr double kMaxCapacity = 9007199254740992.0;  // 2^53

bool parse_flag(int argc, char** argv, int* i, const char* name,
                double* value) {
  if (std::string(argv[*i]) != name) {
    return false;
  }
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "mobitherm_serve: %s needs a value\n", name);
    std::exit(2);
  }
  char* end = nullptr;
  *value = std::strtod(argv[*i + 1], &end);
  if (end == argv[*i + 1] || *end != '\0' || *value < 0) {
    std::fprintf(stderr, "mobitherm_serve: bad value for %s: %s\n", name,
                 argv[*i + 1]);
    std::exit(2);
  }
  *i += 1;
  return true;
}

bool parse_string_flag(int argc, char** argv, int* i, const char* name,
                       std::string* value) {
  if (std::string(argv[*i]) != name) {
    return false;
  }
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "mobitherm_serve: %s needs a value\n", name);
    std::exit(2);
  }
  *value = argv[*i + 1];
  *i += 1;
  return true;
}

/// Reads flag `name` as an integer in [lo, hi], as the protocol's
/// read_integer reads a field; any other value exits 2.
bool parse_int_flag(int argc, char** argv, int* i, const char* name,
                    double lo, double hi, double* value) {
  if (!parse_flag(argc, argv, i, name, value)) {
    return false;
  }
  if (!(*value >= lo && *value <= hi) || *value != std::floor(*value)) {
    std::fprintf(stderr,
                 "mobitherm_serve: %s must be an integer in [%.0f, %.0f], "
                 "not %s\n",
                 name, lo, hi, argv[*i]);
    std::exit(2);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mobitherm::service;

  ServiceConfig config;
  double workers = 1;
  double queue = 16;
  double cache = 64;
  double deadline = 0;
  double retries = 3;
  double shards = 1;
  double listen_port = 0;
  bool listen = false;
  std::string fault_spec;
  std::string packs_dir;
  for (int i = 1; i < argc; ++i) {
    if (parse_int_flag(argc, argv, &i, "--listen", 0, kMaxPort,
                       &listen_port)) {
      listen = true;
      continue;
    }
    if (parse_int_flag(argc, argv, &i, "--workers", 1, kMaxWorkers,
                       &workers) ||
        parse_int_flag(argc, argv, &i, "--queue", 0, kMaxCapacity, &queue) ||
        parse_int_flag(argc, argv, &i, "--cache", 0, kMaxCapacity, &cache) ||
        parse_flag(argc, argv, &i, "--deadline", &deadline) ||
        parse_int_flag(argc, argv, &i, "--retries", 1, kMaxRetries,
                       &retries) ||
        parse_flag(argc, argv, &i, "--shards", &shards) ||
        parse_string_flag(argc, argv, &i, "--fault", &fault_spec) ||
        parse_string_flag(argc, argv, &i, "--packs", &packs_dir)) {
      continue;
    }
    std::fprintf(stderr,
                 "usage: mobitherm_serve [--workers N] [--queue N] "
                 "[--cache N] [--deadline SECONDS] [--retries N] "
                 "[--fault SPEC] [--listen PORT] [--packs DIR]\n");
    return 2;
  }
  if (shards != 1) {
    std::fprintf(stderr,
                 "mobitherm_serve: sharding was removed; --shards accepts "
                 "only 1 (use --workers, --queue and --cache to size the "
                 "service)\n");
    return 2;
  }
  if (!(deadline <= kMaxWaitSeconds)) {
    std::fprintf(stderr, "mobitherm_serve: --deadline must be <= %g s\n",
                 kMaxWaitSeconds);
    return 2;
  }
  config.workers = static_cast<unsigned>(workers);
  config.queue_capacity = static_cast<std::size_t>(queue);
  config.cache_capacity = static_cast<std::size_t>(cache);
  config.default_deadline_s = deadline;
  config.max_attempts = static_cast<int>(retries);

  mobitherm::util::FaultPlanConfig fault_config;
  if (!fault_spec.empty()) {
    try {
      fault_config = mobitherm::util::FaultPlan::parse_config(fault_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mobitherm_serve: bad --fault spec: %s\n",
                   e.what());
      return 2;
    }
  }
  mobitherm::util::FaultPlan faults(fault_config);
  if (!fault_spec.empty()) {
    config.faults = &faults;
  }

  ScenarioRegistry registry = ScenarioRegistry::standard();
  {
    // The built-in synthetic stressor pack is always available; --packs
    // layers JSON packs from disk on top.
    auto packs = std::make_shared<mobitherm::workload::PackSet>();
    packs->add(mobitherm::workload::synthetic_stressor_pack());
    if (!packs_dir.empty()) {
      try {
        mobitherm::workload::PackSet loaded =
            mobitherm::workload::load_pack_dir(packs_dir);
        for (const std::string& name : loaded.pack_names()) {
          packs->add(*loaded.find(name));
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "mobitherm_serve: %s\n", e.what());
        return 2;
      }
    }
    registry.attach_packs(std::move(packs));
  }

  SimService service(std::move(registry), config);
  SimServer server(service, config.faults);

  if (!listen) {
    server.serve(std::cin, std::cout);
    return 0;
  }

  try {
    NetServerConfig net_config;
    net_config.port = static_cast<int>(listen_port);
    NetServer net(server, net_config);
    // Announce the bound port (ephemeral when --listen 0) before serving
    // so a parent process can parse it and connect.
    std::printf("{\"event\":\"listening\",\"host\":\"%s\",\"port\":%d}\n",
                net_config.host.c_str(), net.port());
    std::fflush(stdout);
    net.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mobitherm_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
