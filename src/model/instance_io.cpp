#include "model/instance_io.hpp"

#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace malsched {

namespace {
constexpr const char* kMagic = "malsched-instance";
}

void write_instance(std::ostream& out, const Instance& instance) {
  out << kMagic << " v1\n";
  out << "m " << instance.machines() << "\n";
  out << std::setprecision(17);
  for (const auto& task : instance.tasks()) {
    out << "task " << (task.name().empty() ? "-" : task.name());
    for (int p = 1; p <= instance.machines(); ++p) out << ' ' << task.time(p);
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
  std::vector<MalleableTask> tasks;
  std::string tag;
  int line = 0;
  while (in >> tag) {
    ++line;
    if (tag != "task") throw std::runtime_error("read_instance: expected 'task', got '" + tag + "'");
    std::string name;
    if (!(in >> name)) throw std::runtime_error("read_instance: task name missing");
    if (name == "-") name.clear();
    // Grown as values arrive, never sized from `m` up front: the header's
    // machine count is untrusted, and allocation must stay bounded by what
    // the input actually holds.
    std::vector<double> times;
    for (int p = 0; p < machines; ++p) {
      double t = 0.0;
      if (!(in >> t)) {
        throw std::runtime_error("read_instance: task " + std::to_string(line) +
                                 " has fewer than m time entries");
      }
      times.push_back(t);
    }
    try {
      tasks.emplace_back(std::move(times), std::move(name));
    } catch (const std::invalid_argument& err) {
      throw std::runtime_error("read_instance: task " + std::to_string(line) + ": " + err.what());
    }
  }
  return Instance(machines, std::move(tasks));
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
