// trexbench: the TReX benchmark driver (one workload per process).
//
//   trexbench --workload NAME --seed N --seconds S --mode timed|traced|obs_ab
//             --work-dir DIR [--span-file PATH] [--ops N]
//             [--tamper]
//
// Prints one "name value unit" line per metric, then, as the last line,
// {"correct":...,"attempted":...,"failed":...,"metrics":{...}}. run.py
// builds this binary, runs it and selects the metrics BENCHMARK.json
// names. Exit code 0 on a completed run (even with wrong answers: those
// are reported), 1 on a setup error, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: trexbench --workload NAME --seed N --seconds S "
               "--mode timed|traced|obs_ab --work-dir DIR "
               "[--span-file PATH] [--ops N] [--tamper]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  trexbench::Args args;
  std::string mode = "timed";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tamper") {
      args.tamper = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--span-file") {
      args.span_file = value;
    } else if (flag == "--ops") {
      args.ops = std::strtoull(value, nullptr, 10);
    } else {
      return Usage();
    }
  }
  if (mode == "timed") {
    args.mode = trexbench::Mode::kTimed;
  } else if (mode == "traced") {
    args.mode = trexbench::Mode::kTraced;
  } else if (mode == "obs_ab") {
    args.mode = trexbench::Mode::kObsAB;
  } else {
    return Usage();
  }
  bool known = false;
  for (const std::string& name : trexbench::WorkloadNames()) {
    known = known || name == args.workload;
  }
  if (!known || args.work_dir.empty() || args.seconds <= 0) {
    return Usage();
  }

  trexbench::Outcome outcome;
  if (!trexbench::RunWorkload(args, &outcome)) return 1;
  std::printf("workload %s seed %llu mode %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), mode.c_str());
  outcome.metrics.Print(stdout);
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
      outcome.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed),
      outcome.metrics.Json().c_str());
  return 0;
}
