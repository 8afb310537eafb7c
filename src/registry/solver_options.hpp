#pragma once

#include <map>
#include <string>
#include <vector>

#include "registry/option_spec.hpp"

/// Generic key=value option bag for the solver registry.
///
/// Every solver behind the SolverRegistry facade is configured through the
/// same string-keyed interface so callers (CLI front ends, batch drivers,
/// benches) need no per-algorithm structs. Keys are validated against the
/// solver's declared OptionSpec table at dispatch time (see validate());
/// typed getters convert on access and throw std::invalid_argument on
/// malformed values, never on missing ones (the fallback applies).
namespace malsched {

class SolverOptions {
 public:
  SolverOptions() = default;

  /// Parses a list of "key=value" tokens (a bare "key" means "key=1", the
  /// conventional boolean shorthand). Throws std::invalid_argument on an
  /// empty key and on whatever set() refuses. Pinned edge cases:
  ///   * duplicate keys: the last occurrence wins ("a=1,a=2" -> a=2),
  ///   * "key=" sets the empty-string value, which every typed getter
  ///     throws on like any unparsable text,
  ///   * only the FIRST '=' splits, so values may contain '=' ("a==b" ->
  ///     a="=b"),
  ///   * a ',' inside a token is refused ("a=1,b=2" as ONE token), since
  ///     str() joins entries with ','.
  static SolverOptions from_tokens(const std::vector<std::string>& tokens);

  /// Parses a single spec string: tokens separated by commas and/or
  /// whitespace, e.g. "epsilon=0.02,rigid=ffdh compaction". Stray
  /// separators (leading, trailing, or repeated ",,"/", ") produce empty
  /// tokens, which are skipped; the edge cases of from_tokens apply
  /// otherwise.
  static SolverOptions from_string(const std::string& spec);

  /// Sets (or overwrites) one option. Throws std::invalid_argument on an
  /// empty key, a key containing '=' or ',', or a value containing ',':
  /// those are str()'s separators, and refusing them here keeps str()
  /// injective.
  SolverOptions& set(std::string key, std::string value);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Raw string value, or `fallback` when absent.
  [[nodiscard]] std::string get_string(const std::string& key, const std::string& fallback = {}) const;

  /// Numeric value; throws std::invalid_argument when present but unparsable.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] int get_int(const std::string& key, int fallback) const;

  /// Booleans accept 1/0, true/false, yes/no, on/off (case-insensitive).
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Checks every entry against a declared spec table; throws
  /// std::invalid_argument on the first violation:
  ///   * an unknown key (message carries a did-you-mean suggestion when a
  ///     declared name is within edit distance 2, plus the declared list),
  ///   * a value that fails its declared type (bool/int/double parse, or an
  ///     enum value outside the allowed set), or
  ///   * a numeric value outside the declared inclusive range.
  void validate(const std::vector<OptionSpec>& specs) const;

  /// All options in key order (for logging and round-tripping).
  [[nodiscard]] const std::map<std::string, std::string>& entries() const noexcept {
    return entries_;
  }

  /// "k1=v1,k2=v2" rendering of the bag in key order (empty string when
  /// empty) -- canonical and injective: two bags render to the same string
  /// exactly when they are equal (set() keeps the separators out of keys
  /// and values), which is what the solve cache keys on.
  [[nodiscard]] std::string str() const;

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace malsched
