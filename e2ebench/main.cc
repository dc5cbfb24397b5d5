// End-to-end benchmark: one workload per run, outputs checked,
// every metric printed by name with its unit. See README.md.
//
//   e2e_bench --workload online|backfill_train --seed N
//             --seconds S --trace 0|1 [--smoke] [--workdir DIR]
//             [--trace-out FILE]
//
// The last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>

#include "bench.h"

namespace mlfs::e2e {
namespace {

// Every run reports these, whatever its workload (BENCHMARK.json).
const std::set<std::string> kEndToEnd = {
    "setup_s",           "peak_rss_mb",      "serve_keys_per_s",
    "serve_p50_us",      "serve_p99_us",     "ingest_rows_per_s",
    "materialize_s",     "train_rows_per_s", "ann_queries_per_s"};

int Usage(const char* why) {
  std::cerr << "e2e_bench: " << why
            << "\nusage: e2e_bench --workload online|backfill_train --seed N "
               "--seconds S --trace 0|1 [--smoke] "
               "[--workdir DIR] [--trace-out FILE]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1 || args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

void PrintResult(const Report& report, bool trace) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const Metric& m : report.metrics) {
    // The traced run's end-to-end figures are per-layer context: they are
    // what tracing costs against the untraced runs.
    const std::string name =
        trace && kEndToEnd.count(m.name) ? "traced." + m.name : m.name;
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace
}  // namespace mlfs::e2e

int main(int argc, char** argv) {
  using namespace mlfs::e2e;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
#ifndef NDEBUG
  return Usage("refusing to measure a build with assertions on (no NDEBUG)");
#endif
  if (std::strcmp(E2E_BUILD_TYPE, "Release") != 0) {
    return Usage("refusing to measure a non-Release build");
  }

  // At most nproc - 1 threads are ever busy: the clients, or the join
  // pool while the (otherwise idle) client waits for it. Serving runs without a batch_parallelism pool, nothing
  // starts a maintenance thread and readahead stays off, so these are all.
  // Capped at 3 so the workloads keep their shape on larger hosts.
  Threads threads;
  threads.nproc = Nproc();
  const int spare = threads.nproc - 1;
  threads.readers = std::min(3, spare);
  threads.join = std::min(3, spare);
  int busy = 0;
  if (args.workload == "online") {
    busy = std::max(threads.readers, threads.join);
  } else if (args.workload == "backfill_train") {
    busy = threads.join;  // One client, and the join pool while it runs.
  } else {
    return Usage("unknown workload");
  }
  if (busy < 1 || busy > spare) {
    std::cerr << "e2e_bench: " << args.workload << " needs more than nproc - 1 = "
              << spare << " busy threads\n";
    return 2;
  }

  if (args.workdir.empty()) {
    args.workdir = ".bench_build/run-" + std::to_string(getpid());
  }
  if (args.trace_out.empty()) {
    args.trace_out = ".bench_build/traces/" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".txt";
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (args.trace) {
    std::filesystem::create_directories(
        std::filesystem::path(args.trace_out).parent_path(), ec);
  }
  if (ec) return Usage("cannot create the work or trace directory");

  // The environment the figures hold for. Spill and tier files are written
  // with WriteFileAtomic (rename, no fsync) and read back through mmap right
  // after, so reads hit a warm page cache.
  std::cerr << "e2e: env {\"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << args.trace << ", \"smoke\": " << args.smoke
            << ", \"nproc\": " << threads.nproc
            << ", \"busy_threads\": " << busy << ", \"build_type\": \""
            << E2E_BUILD_TYPE << "\", \"page_cache\": \"warm\", "
            << "\"spill\": \"WriteFileAtomic, no fsync\"}\n";

  Report report;
  if (args.workload == "online") {
    RunOnline(args, threads, &report);
  } else {
    RunBackfillTrain(args, threads, &report);
  }
  // The stores are gone, and with them their spill and tier files.
  std::filesystem::remove_all(args.workdir, ec);

  std::set<std::string> names;
  for (const Metric& m : report.metrics) {
    names.insert(m.name);
    if (!std::isfinite(m.value)) {
      report.CheckFailed("metric " + m.name + " is not finite");
    }
  }
  for (const std::string& name : kEndToEnd) {
    if (!names.count(name)) {
      std::cerr << "e2e_bench: run ended without " << name << "\n";
      return 1;
    }
  }
  if (!args.trace) {
    std::erase_if(report.metrics, [](const Metric& m) {
      return !kEndToEnd.count(m.name);
    });
  }
  PrintResult(report, args.trace);
  return 0;
}
