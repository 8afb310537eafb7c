#include "model/instance_io.hpp"

#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace malsched {

namespace {
constexpr const char* kMagic = "malsched-instance";
}

void write_instance(std::ostream& out, const Instance& instance) {
  // Checked whole before the first byte goes out: read_instance must give
  // back this exact content, which a name that is "-" or holds whitespace,
  // or a profile longer than m, would not.
  for (int i = 0; i < instance.size(); ++i) {
    const MalleableTask task = instance.task(i);
    if (task.name() == "-" || task.name().find_first_of(" \t\n\v\f\r") != std::string_view::npos) {
      throw std::invalid_argument("write_instance: task " + std::to_string(i) + " name '" +
                                  std::string(task.name()) +
                                  "' is '-' or holds whitespace, which would not read back");
    }
    if (task.max_procs() != instance.machines()) {
      throw std::invalid_argument("write_instance: task " + std::to_string(i) + " has " +
                                  std::to_string(task.max_procs()) + " time entries for m = " +
                                  std::to_string(instance.machines()) +
                                  ", which would not read back");
    }
  }
  out << kMagic << " v1\n";
  out << "m " << instance.machines() << "\n";
  out << std::setprecision(17);
  for (int i = 0; i < instance.size(); ++i) {
    const MalleableTask task = instance.task(i);
    out << "task " << (task.name().empty() ? "-" : task.name());
    for (const double t : task.profile()) out << ' ' << t;
    out << "\n";
  }
}

Instance read_instance(std::istream& in) {
  std::string magic;
  std::string version;
  if (!(in >> magic >> version) || magic != kMagic || version != "v1") {
    throw std::runtime_error("read_instance: missing 'malsched-instance v1' header");
  }
  std::string key;
  int machines = 0;
  if (!(in >> key >> machines) || key != "m" || machines < 1) {
    throw std::runtime_error("read_instance: expected 'm <machines>' line");
  }
  Instance instance(machines);
  std::string tag;
  std::string name;
  // One line's values, reused: grown as values arrive, never sized from `m`
  // up front. The header's machine count is untrusted, and allocation must
  // stay bounded by what the input actually holds.
  std::vector<double> times;
  int line = 0;
  while (in >> tag) {
    ++line;
    if (tag != "task") throw std::runtime_error("read_instance: expected 'task', got '" + tag + "'");
    if (!(in >> name)) throw std::runtime_error("read_instance: task name missing");
    if (name == "-") name.clear();
    times.clear();
    for (int p = 0; p < machines; ++p) {
      double t = 0.0;
      if (!(in >> t)) {
        throw std::runtime_error("read_instance: task " + std::to_string(line) +
                                 " has fewer than m time entries");
      }
      times.push_back(t);
    }
    try {
      instance.add_task(times, name);
    } catch (const std::invalid_argument& err) {
      throw std::runtime_error("read_instance: task " + std::to_string(line) + ": " + err.what());
    }
  }
  return instance;
}

std::string instance_to_string(const Instance& instance) {
  std::ostringstream out;
  write_instance(out, instance);
  return out.str();
}

Instance instance_from_string(const std::string& text) {
  std::istringstream in(text);
  return read_instance(in);
}

}  // namespace malsched
