#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <iostream>
#include <thread>

#include "support/failpoint.hpp"
#include "support/fnv.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string format(const char* pattern, ...) {
  char buffer[512];
  va_list args;
  va_start(args, pattern);
  const int written = std::vsnprintf(buffer, sizeof buffer, pattern, args);
  va_end(args);
  if (written < 0) return {};
  return std::string(buffer, std::min<std::size_t>(static_cast<std::size_t>(written),
                                                   sizeof buffer - 1));
}

double order_statistic(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return n - rank;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double process_seconds() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// ------------------------------------------------------------ AnswerGate

void AnswerGate::note(std::string message) {
  if (messages_.size() < 8) messages_.push_back(std::move(message));
}

Answer answer_of(const malsched::SolverResult& result) {
  return {result.makespan, result.lower_bound, result.ratio, result.stat("gaps", 0.0)};
}

bool AnswerGate::gate(const Answer& answer, const std::string& what) {
  bool ok = true;
  if (!(answer.lower_bound <= answer.makespan)) {
    note(what + format(": lower bound %.17g exceeds makespan %.17g", answer.lower_bound,
                       answer.makespan));
    ok = false;
  }
  if (!(answer.ratio <= kRatioLimit)) {
    note(what + format(": ratio %.17g above sqrt(3)(1+eps) = %.6f", answer.ratio, kRatioLimit));
    ok = false;
  }
  if (answer.gaps != 0.0) {
    note(what + format(": %g uncertified rejections (gaps)", answer.gaps));
    ok = false;
  }
  return ok;
}

Reference AnswerGate::reference(const Answer& answer) {
  ++checked_;
  if (!gate(answer, "reference")) ++violations_;
  return answer;
}

bool AnswerGate::check(const Answer& answer, const Reference& expected) {
  ++checked_;
  bool ok = gate(answer, "answer");
  if (answer.makespan != expected.makespan || answer.lower_bound != expected.lower_bound ||
      answer.ratio != expected.ratio) {
    note(format("answer differs from its reference: makespan %.17g vs %.17g, bound %.17g vs "
                "%.17g",
                answer.makespan, expected.makespan, answer.lower_bound, expected.lower_bound));
    ok = false;
  }
  malsched::fnv::mix_bytes(hash_, &answer.makespan, sizeof answer.makespan);
  malsched::fnv::mix_bytes(hash_, &answer.lower_bound, sizeof answer.lower_bound);
  malsched::fnv::mix_bytes(hash_, &answer.ratio, sizeof answer.ratio);
  if (!ok) ++violations_;
  return ok;
}

void AnswerGate::fail(const std::string& why) {
  ++checked_;
  ++violations_;
  note(why);
}

void AnswerGate::merge(const AnswerGate& other) {
  checked_ += other.checked_;
  violations_ += other.violations_;
  malsched::fnv::mix_u64(hash_, other.hash_);
  for (const auto& message : other.messages_) {
    if (messages_.size() < 8) messages_.push_back(message);
  }
}

std::string AnswerGate::digest_hex() const {
  return format("%016llx", static_cast<unsigned long long>(hash_));
}

// ---------------------------------------------------------------- Report

void Report::add(const std::string& name, double value, const std::string& unit,
                 std::size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::note(const std::string& line) { std::cout << "# " << line << "\n"; }

void Report::stamp(const RunContext& context) {
  note(format("workload %s  seed %llu  seconds %g  trace %d", context.workload.c_str(),
              static_cast<unsigned long long>(context.seed), context.seconds,
              context.trace ? 1 : 0));
  note(format("host nproc %u  compiler %s %s  build %s  failpoints %s",
              std::thread::hardware_concurrency(),
#if defined(__clang__)
              "clang",
#elif defined(__GNUC__)
              "gcc",
#else
              "unknown",
#endif
              __VERSION__, PERFBENCH_BUILD_TYPE,
              malsched::failpoints::compiled_in() ? "on" : "off"));
  note("revision " + context.rev + "  source " + context.source_digest);
}

int Report::finish(std::uint64_t attempted, std::uint64_t failed) const {
  bool finite = true;
  for (const auto& metric : metrics_) {
    note(format("%-34s %14.6g %-12s n=%zu", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples));
    finite = finite && std::isfinite(metric.value);
  }
  if (!finite) {
    note("a metric is not finite; no result");
    return 1;
  }
  note(format("attempted %llu  failed %llu  error_rate %.6g",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0));
  std::string json =
      format("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
             failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
             static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    json += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                   metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
  }
  json += "}}";
  std::cout << json << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench
