#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// In-memory span recording for the traced run. The benchmark opens a span
/// around each call it makes into a layer's public functions; nothing inside
/// the program is instrumented. Spans are kept in memory and written out
/// once the run ends.
namespace perfbench {

/// One timed interval. `parent` indexes the same log (-1 for a root); spans
/// of one request share `request`.
struct Span {
  const char* name{""};
  int parent{-1};
  std::uint64_t request{0};
  double start{0.0};  ///< process_seconds()
  double end{0.0};
};

/// Single-threaded span log; multi-threaded workloads keep one per thread
/// and append() them together afterwards.
class SpanLog {
 public:
  /// Opens a span now under the innermost open span (a root when none is
  /// open) and returns its index.
  int open(const char* name, std::uint64_t request);
  /// Closes span `index` (normally the innermost open one).
  void close(int index);
  /// Records a span whose instants were stamped elsewhere.
  int record(const char* name, int parent, std::uint64_t request, double start, double end);

  /// Moves `other`'s spans to the end of this log (parent links rebased).
  void append(SpanLog&& other);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Writes one `name,parent,request,start,end` line per span.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: open on construction, close on destruction.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, std::uint64_t request)
      : log_(log), index_(log.open(name, request)) {}
  ~Scoped() { log_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Summed self time per span name, in seconds.
[[nodiscard]] std::map<std::string, double> self_seconds_by_name(const std::vector<Span>& spans);

/// Largest |sum of self times in a root's subtree - the root's duration|
/// over every root, in seconds: 0 up to rounding when children nest inside
/// their parents.
[[nodiscard]] double max_additivity_error(const std::vector<Span>& spans);

}  // namespace perfbench
