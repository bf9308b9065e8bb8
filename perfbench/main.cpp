// perfbench: the repository's canonical benchmark program.
//
//   perfbench --workload <paper_mix|exact_only|wire_paced|pim_sim>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spans PATH] [--reads N] [--inject-mismatch]
//
// With --trace 0 it measures the workload untraced for about --seconds and
// prints every end-to-end metric; with --trace 1 it runs the traced replay
// and prints every per-layer metric. Each metric goes on its own line as
// "<name> <value> <unit>", and the last line is the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --reads shrinks the read pool and --inject-mismatch corrupts one result;
// both exist for the benchmark's own tests. Exit status 2 means bad usage,
// 1 a run that could not complete (no result line is printed then).
#include <cstdio>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH] [--reads N] "
               "[--inject-mismatch]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-mismatch") {
      args.inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--spans") {
        args.spans_path = value;
      } else if (flag == "--reads") {
        args.reads = std::stoull(value);
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload.empty()) return usage("--workload is required");

  try {
    const perfbench::WorkloadSpec spec =
        perfbench::workload_spec(args.workload);
    perfbench::Report report(args.trace);
    if (spec.name == "wire_paced") {
      perfbench::run_wire_workload(spec, args, report);
    } else if (spec.name == "pim_sim") {
      perfbench::run_pim_workload(spec, args, report);
    } else {
      perfbench::run_stream_workload(spec, args, report);
    }
    if (report.failed != 0) report.correct = false;
    report.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
