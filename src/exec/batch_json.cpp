#include "exec/batch_json.hpp"

namespace malsched {

namespace {

void append_schedule_json(JsonWriter& writer, const Schedule& schedule) {
  writer.begin_array();
  for (const auto& assignment : schedule.assignments()) {
    writer.begin_object();
    writer.kv("task", assignment.task);
    writer.kv("start", assignment.start);
    writer.kv("duration", assignment.duration);
    if (assignment.contiguous()) {
      writer.kv("first_proc", assignment.first_proc);
      writer.kv("num_procs", assignment.num_procs);
    } else {
      writer.key("procs");
      writer.begin_array();
      for (const int p : schedule.scattered(assignment)) writer.value(p);
      writer.end_array();
    }
    writer.end_object();
  }
  writer.end_array();
}

void append_stats_json(JsonWriter& writer,
                       const std::vector<std::pair<std::string, double>>& stats) {
  writer.begin_object();
  for (const auto& [key, value] : stats) writer.kv(key, value);
  writer.end_object();
}

}  // namespace

void append_result_json(JsonWriter& writer, const SolverResult& result,
                        const BatchJsonOptions& options) {
  writer.begin_object();
  writer.kv("solver", result.solver);
  writer.kv("makespan", result.makespan);
  writer.kv("lower_bound", result.lower_bound);
  writer.kv("ratio", result.ratio);
  if (options.include_timing) writer.kv("wall_seconds", result.wall_seconds);
  writer.key("stats");
  append_stats_json(writer, result.stats);
  if (options.include_schedules) {
    writer.key("schedule");
    append_schedule_json(writer, result.schedule);
  }
  writer.end_object();
}

void append_item_json(JsonWriter& writer, const BatchItem& item,
                      const BatchJsonOptions& options) {
  writer.begin_object();
  writer.kv("index", item.index);
  writer.kv("status", to_string(item.status));
  // v2.1 typed errors: the machine-readable code for every non-ok item, the
  // human-readable detail (the pre-v2.1 "error" string) only where there is
  // message text to carry.
  if (item.status != SolveStatus::kOk) writer.kv("error_code", to_string(item.error.code));
  if (item.status == SolveStatus::kError) writer.kv("error", item.error.detail);
  if (item.result) {
    writer.key("result");
    append_result_json(writer, *item.result, options);
  }
  writer.end_object();
}

std::string batch_report_json(const BatchReport& report, const BatchJsonOptions& options) {
  JsonWriter writer;
  writer.begin_object();
  writer.kv("ok", report.ok);
  writer.kv("errors", report.errors);
  writer.kv("cancelled", report.cancelled);
  if (options.include_timing) {
    writer.kv("threads", report.threads);
    writer.kv("wall_seconds", report.wall_seconds);
  }
  writer.key("aggregate_stats");
  append_stats_json(writer, report.aggregate_stats());
  writer.key("items");
  writer.begin_array();
  for (const auto& item : report.items) append_item_json(writer, item, options);
  writer.end_array();
  writer.end_object();
  return writer.str();
}

}  // namespace malsched
