// Command-line front end: solve a malleable instance from a file (or a
// generated one) with any solver registered in the SolverRegistry.
//
//   ./build/examples/solve_file --emit-sample sample.inst
//   ./build/examples/solve_file sample.inst
//   ./build/examples/solve_file --algo two_phase --opt rigid=ffdh --gantt sample.inst
//   ./build/examples/solve_file --family bimodal --tasks 40 --machines 16
//   ./build/examples/solve_file --list-algos
//
// The instance format is documented in src/model/instance_io.hpp.

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "registry/solver_registry.hpp"
#include "model/instance_io.hpp"
#include "sched/gantt.hpp"
#include "workload/generators.hpp"

namespace {

using namespace malsched;

int usage() {
  std::cerr <<
      "usage: solve_file [options] [instance-file]\n"
      "  --algo NAME        a registered solver (see --list-algos); default mrt\n"
      "  --opt KEY=VALUE    solver option, repeatable (e.g. --opt rigid=nfdh)\n"
      "  --epsilon X        shorthand for --opt epsilon=X (solver default:\n"
      "                     0.01, except graph's layered strategy at 0.02)\n"
      "  --gantt            render the schedule\n"
      "  --list-algos       print the registered solvers and exit\n"
      "  --family NAME      generate instead of reading a file\n"
      "                     (uniform|bimodal|heavy-tail|stairs|packed-opt1|sequential-only)\n"
      "  --tasks N --machines M --seed S   generator parameters\n"
      "  --emit-sample FILE write a small sample instance and exit\n";
  return 2;
}

std::optional<WorkloadFamily> family_from_name(const std::string& name) {
  for (const auto family : all_workload_families()) {
    if (to_string(family) == name) return family;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string algo = "mrt";
  std::string family_name;
  std::string path;
  std::string emit_path;
  std::vector<std::string> option_tokens;
  bool gantt = false;
  int tasks = 32;
  int machines = 16;
  std::uint64_t seed = 1;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto next = [&]() -> std::string {
      if (a + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--algo") {
      algo = next();
    } else if (arg == "--opt") {
      option_tokens.push_back(next());
    } else if (arg == "--epsilon") {
      option_tokens.push_back("epsilon=" + next());
    } else if (arg == "--gantt") {
      gantt = true;
    } else if (arg == "--list-algos") {
      // One-liner plus the per-option help table, both rendered from the
      // registry's OptionSpec tables (the same source validation uses).
      const auto& registry = SolverRegistry::global();
      for (const auto& name : registry.names()) {
        std::cout << name << "  --  " << registry.description(name) << "\n"
                  << registry.option_help(name, "      ");
      }
      return 0;
    } else if (arg == "--family") {
      family_name = next();
    } else if (arg == "--tasks") {
      tasks = std::stoi(next());
    } else if (arg == "--machines") {
      machines = std::stoi(next());
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--emit-sample") {
      emit_path = next();
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option " << arg << "\n";
      return usage();
    } else {
      path = arg;
    }
  }

  if (!emit_path.empty()) {
    GeneratorOptions options;
    options.tasks = 8;
    options.machines = 8;
    const auto sample = generate_instance(WorkloadFamily::kUniform, options, 7);
    std::ofstream out(emit_path);
    write_instance(out, sample);
    std::cout << "wrote sample instance (" << sample.size() << " tasks, "
              << sample.machines() << " machines) to " << emit_path << "\n";
    return 0;
  }

  std::optional<Instance> instance;
  if (!family_name.empty()) {
    const auto family = family_from_name(family_name);
    if (!family) {
      std::cerr << "unknown family " << family_name << "\n";
      return usage();
    }
    GeneratorOptions options;
    options.tasks = tasks;
    options.machines = machines;
    instance = generate_instance(*family, options, seed);
  } else if (!path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open " << path << "\n";
      return 1;
    }
    try {
      instance = read_instance(in);
    } catch (const std::exception& err) {
      std::cerr << "parse error: " << err.what() << "\n";
      return 1;
    }
  } else {
    return usage();
  }

  SolverOptions options;
  try {
    options = SolverOptions::from_tokens(option_tokens);
  } catch (const std::exception& err) {
    std::cerr << err.what() << "\n";
    return usage();
  }

  const auto handle = InstanceHandle::intern(std::move(*instance));
  std::optional<SolverResult> result;
  try {
    result = SolverRegistry::global().solve(SolveRequest(algo, options, handle));
  } catch (const std::invalid_argument& err) {
    std::cerr << err.what() << "\n";
    return usage();
  } catch (const std::exception& err) {
    std::cerr << "solve failed: " << err.what() << "\n";
    return 1;
  }

  std::cout << result->summary() << "\n";
  for (const auto& [key, value] : result->stats) {
    std::cout << "  " << key << " = " << value << "\n";
  }
  if (gantt) render_gantt(std::cout, result->schedule);
  return 0;
}
