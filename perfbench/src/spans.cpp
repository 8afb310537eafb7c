#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "report.hpp"

namespace perfbench {

int SpanLog::open(const char* name, std::uint64_t request) {
  const int parent = open_.empty() ? -1 : open_.back();
  const double now = process_seconds();
  spans_.push_back({name, parent, request, now, now});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = process_seconds();
  const auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it);
}

int SpanLog::record(const char* name, int parent, std::uint64_t request, double start,
                    double end) {
  spans_.push_back({name, parent, request, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::append(SpanLog&& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
  other.spans_.clear();
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "name,parent,request,start,end\n");
  for (const auto& span : spans_) {
    std::fprintf(out, "%s,%d,%llu,%.9f,%.9f\n", span.name, span.parent,
                 static_cast<unsigned long long>(span.request), span.start, span.end);
  }
  return std::fclose(out) == 0;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start, span.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = lo;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, cursor);
      const double to = std::min(end, hi);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, double> self_seconds_by_name(const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) totals[spans[i].name] += self[i];
  return totals;
}

double max_additivity_error(const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::vector<double> subtree(self);
  // Parents precede their children in every log, so one backward pass folds
  // each subtree's self time into its root.
  for (std::size_t i = spans.size(); i-- > 0;) {
    if (spans[i].parent >= 0) subtree[static_cast<std::size_t>(spans[i].parent)] += subtree[i];
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      worst = std::max(worst, std::abs(subtree[i] - (spans[i].end - spans[i].start)));
    }
  }
  return worst;
}

}  // namespace perfbench
