#include "oracles/outcome_payload.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <exception>

namespace malsched {

namespace {

void append_bits(std::string& out, double value) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(value)));
  out += buffer;
}

void append_field(std::string& out, const char* name, double value) {
  out += ' ';
  out += name;
  out += '=';
  append_bits(out, value);
}

}  // namespace

std::string outcome_payload(const SolveOutcome& outcome) {
  std::string out = "status=" + to_string(outcome.status) +
                    " error=" + to_string(outcome.error.code) + " detail=" + outcome.error.detail;
  if (!outcome.result) return out;
  const SolverResult& result = *outcome.result;
  out += "\nsolver=" + result.solver;
  append_field(out, "makespan", result.makespan);
  append_field(out, "lower_bound", result.lower_bound);
  append_field(out, "ratio", result.ratio);
  for (const auto& [key, value] : result.stats) {
    out += "\nstat";
    append_field(out, key.c_str(), value);
  }
  for (const auto& assignment : result.schedule.assignments()) {
    out += "\ntask=" + std::to_string(assignment.task);
    append_field(out, "start", assignment.start);
    append_field(out, "duration", assignment.duration);
    out += " procs=" + std::to_string(assignment.first_proc) + '+' +
           std::to_string(assignment.num_procs);
  }
  return out;
}

std::string serial_payload(const SolveRequest& request) {
  SolveOutcome outcome;
  try {
    outcome.result = SolverRegistry::global().solve(request);
    outcome.status = SolveStatus::kOk;
  } catch (const std::exception& err) {
    outcome.status = SolveStatus::kError;
    outcome.error = classify_solve_exception(err);
  }
  return outcome_payload(outcome);
}

}  // namespace malsched
