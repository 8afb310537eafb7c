#pragma once

#include <limits>
#include <string>
#include <vector>

/// Declared option schemas for the solver registry.
///
/// Every registered solver publishes one OptionSpec per option it reads:
/// name, type, range (for numbers) or value set (for enums), rendered
/// default, and one line of help. The same table drives three things so none
/// of them can drift apart:
///
///   * validation -- SolverOptions::validate() rejects unknown keys (with a
///     did-you-mean suggestion) and out-of-range or mistyped values before a
///     solver ever runs,
///   * help text -- option_table() renders the per-solver option help the
///     CLI (`solve_file --list-algos`) and the README tables print, and
///   * the registry's description() one-liners, whose option portion is
///     derived from the spec names at registration time.
namespace malsched {

enum class OptionType {
  kBool,    ///< 1/0, true/false, yes/no, on/off
  kInt,     ///< integer within [min_value, max_value]
  kDouble,  ///< real number within [min_value, max_value]
  kEnum,    ///< one of enum_values
};

[[nodiscard]] std::string to_string(OptionType type);

struct OptionSpec {
  std::string name;
  OptionType type{OptionType::kBool};
  std::string help;
  /// Rendered default (what the solver uses when the key is absent); empty
  /// means "no default" (the option is purely optional).
  std::string default_value;
  /// Inclusive numeric range for kInt/kDouble; ignored otherwise.
  double min_value{-std::numeric_limits<double>::infinity()};
  double max_value{std::numeric_limits<double>::infinity()};
  /// Allowed values for kEnum; ignored otherwise.
  std::vector<std::string> enum_values;

  // Named constructors keep registration sites readable (and render the
  // default from the same typed value the solver actually falls back to, so
  // help text cannot drift from code).
  [[nodiscard]] static OptionSpec boolean(std::string name, bool default_value,
                                          std::string help);
  [[nodiscard]] static OptionSpec integer(std::string name, int default_value, int min_value,
                                          int max_value, std::string help);
  [[nodiscard]] static OptionSpec real(std::string name, double default_value, double min_value,
                                       double max_value, std::string help);
  [[nodiscard]] static OptionSpec enumeration(std::string name, std::string default_value,
                                              std::vector<std::string> values, std::string help);

  /// "bool", "int in [1, 96]", "ffdh|nfdh|list", ... -- the type column of
  /// the rendered help table.
  [[nodiscard]] std::string type_label() const;
};

/// Renders a fixed-width help table ("name  type  default  help"), one line
/// per spec, each line prefixed with `indent`. Empty specs render to "".
[[nodiscard]] std::string option_table(const std::vector<OptionSpec>& specs,
                                       const std::string& indent = "  ");

/// Case-sensitive Levenshtein distance (insert/delete/substitute, unit
/// costs) -- the did-you-mean metric for unknown option keys.
[[nodiscard]] int edit_distance(const std::string& a, const std::string& b);

/// The closest spec name within edit distance 2 of `key`, or "" when nothing
/// is close enough to suggest.
[[nodiscard]] std::string closest_option_name(const std::string& key,
                                              const std::vector<OptionSpec>& specs);

}  // namespace malsched
