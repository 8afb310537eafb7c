#pragma once

#include <string>
#include <string_view>
#include <vector>

/// Minimal streaming JSON emitter for machine-readable artifacts.
///
/// bench_load writes LOAD_<rev>.json (service stats through api/stats_json,
/// latency histograms), but the repo takes no third-party dependencies --
/// so this is a small RFC 8259 writer with the properties that artifact
/// needs: insertion-order keys, deterministic number rendering (identical
/// input bits produce identical text), full string escaping, and `null` for
/// non-finite doubles (JSON has no inf/nan).
namespace malsched {

/// Escapes `text` for inclusion between JSON double quotes: `"`, `\`, and
/// all control characters below 0x20 (short forms \n \t \r \b \f, \u00XX
/// otherwise). Bytes >= 0x80 pass through untouched (UTF-8 stays UTF-8).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Streaming writer. Structural misuse (a value where a key is required,
/// unbalanced end_*, str() before the document closes) throws
/// std::logic_error -- the harnesses would rather crash than upload a
/// malformed artifact.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits the key of the next object member; must be inside an object.
  void key(std::string_view name);

  void value(std::string_view text);
  /// Null pointers throw std::logic_error (string_view(nullptr) would be UB).
  void value(const char* text);
  // Integer overloads cover every fundamental integer type (std::size_t and
  // friends resolve to one of these on any ABI, with no ambiguity).
  void value(bool flag);
  void value(int number);
  void value(long number);
  void value(long long number);
  void value(unsigned number);
  void value(unsigned long number);
  void value(unsigned long long number);
  /// Non-finite doubles render as null; integral values render without a
  /// fraction ("64", not "64.0"), everything else with round-trip precision.
  void value(double number);

  /// key() + value() in one call, for flat objects.
  template <typename Value>
  void kv(std::string_view name, Value&& v) {
    key(name);
    value(std::forward<Value>(v));
  }

  /// The finished document; throws std::logic_error while containers remain
  /// open or nothing was written.
  [[nodiscard]] const std::string& str() const;

 private:
  enum class Frame { kObject, kArray };

  void accept_value(const char* what);

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_in_frame_;
  bool key_pending_{false};
  bool done_{false};
};

}  // namespace malsched
