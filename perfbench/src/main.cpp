// The benchmark programs. run.py builds one of them and runs one workload per
// process:
//
//   perfbench        --workload solve-large|serve-poisson|serve-hot --seed N
//                    --seconds S --trace 0 [--rev R] [--source D]
//   perfbench_traced ... --trace 0|1 [--trace-dir DIR]
//
// Both are built from these sources; only perfbench_traced is compiled with
// PERFBENCH_TRACED, which brings in the traced branch of every workload and
// the solver-layer replay.
//
// Lines starting with '#' are for people; the last line is the JSON result.
// The exit code is 0 when every answer passed its gates, 1 when one did not,
// and 2 on a usage error or an exception.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload solve-large|serve-poisson|serve-hot --seed N "
               "--seconds S --trace 0|1 [--rev R] [--source D] [--trace-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  (void)perfbench::process_seconds();  // anchor the process clock
  perfbench::RunContext context;
  bool have_seed = false;
  try {
    for (int a = 1; a < argc; ++a) {
      const std::string flag = argv[a];
      if (a + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++a];
      if (flag == "--workload") {
        context.workload = value;
      } else if (flag == "--seed") {
        context.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        context.seconds = std::stod(value);
        if (!(context.seconds > 0.0)) return usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        context.trace = value == "1";
      } else if (flag == "--rev") {
        context.rev = value;
      } else if (flag == "--source") {
        context.source_digest = value;
      } else if (flag == "--trace-dir") {
        context.trace_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_seed) return usage("--seed is required");
#ifndef PERFBENCH_TRACED
  if (context.trace) return usage("this program is not traced; --trace 1 runs perfbench_traced");
#endif

  try {
    if (context.workload == "solve-large") return perfbench::run_solve_large(context);
    if (context.workload == "serve-poisson") return perfbench::run_serve_poisson(context);
    if (context.workload == "serve-hot") return perfbench::run_serve_hot(context);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
  return usage("unknown workload '" + context.workload + "'");
}
