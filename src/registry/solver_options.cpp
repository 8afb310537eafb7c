#include "registry/solver_options.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace malsched {

namespace {

std::string lowercase(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return text;
}

}  // namespace

SolverOptions SolverOptions::from_tokens(const std::vector<std::string>& tokens) {
  SolverOptions options;
  for (const auto& token : tokens) {
    if (token.empty()) continue;
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      options.set(token, "1");
      continue;
    }
    if (eq == 0) throw std::invalid_argument("SolverOptions: empty key in '" + token + "'");
    options.set(token.substr(0, eq), token.substr(eq + 1));
  }
  return options;
}

SolverOptions SolverOptions::from_string(const std::string& spec) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : spec) {
    if (c == ',' || c == ' ' || c == '\t') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return from_tokens(tokens);
}

SolverOptions& SolverOptions::set(std::string key, std::string value) {
  if (key.empty()) throw std::invalid_argument("SolverOptions: empty key");
  if (key.find_first_of("=,") != std::string::npos) {
    throw std::invalid_argument("SolverOptions: key '" + key + "' contains '=' or ','");
  }
  if (value.find(',') != std::string::npos) {
    throw std::invalid_argument("SolverOptions: option '" + key + "' = '" + value +
                                "' contains ',' (pass one key=value per option)");
  }
  entries_[std::move(key)] = std::move(value);
  return *this;
}

bool SolverOptions::has(const std::string& key) const { return entries_.count(key) > 0; }

std::string SolverOptions::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? fallback : it->second;
}

double SolverOptions::get_double(const std::string& key, double fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument("trailing characters");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("SolverOptions: option '" + key + "' expects a number, got '" +
                                it->second + "'");
  }
}

int SolverOptions::get_int(const std::string& key, int fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const int value = std::stoi(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument("trailing characters");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("SolverOptions: option '" + key + "' expects an integer, got '" +
                                it->second + "'");
  }
}

namespace {

/// One readable line naming every declared key, for unknown-key errors.
std::string known_keys(const std::vector<OptionSpec>& specs) {
  std::string out;
  for (const auto& spec : specs) {
    if (!out.empty()) out += ", ";
    out += spec.name;
  }
  return out.empty() ? "none" : out;
}

}  // namespace

void SolverOptions::validate(const std::vector<OptionSpec>& specs) const {
  for (const auto& [key, value] : entries_) {
    const OptionSpec* spec = nullptr;
    for (const auto& candidate : specs) {
      if (candidate.name == key) {
        spec = &candidate;
        break;
      }
    }
    if (spec == nullptr) {
      std::string message = "SolverOptions: unknown option '" + key + "'";
      const std::string suggestion = closest_option_name(key, specs);
      if (!suggestion.empty()) message += " (did you mean '" + suggestion + "'?)";
      message += "; declared options: " + known_keys(specs);
      throw std::invalid_argument(message);
    }
    switch (spec->type) {
      case OptionType::kBool:
        static_cast<void>(get_bool(key, false));
        break;
      case OptionType::kInt: {
        const int parsed = get_int(key, 0);
        if (!(parsed >= spec->min_value && parsed <= spec->max_value)) {
          throw std::invalid_argument("SolverOptions: option '" + key + "' = " + value +
                                      " out of range (expected " + spec->type_label() + ")");
        }
        break;
      }
      case OptionType::kDouble: {
        // Negated conjunction, not disjoined comparisons: NaN compares
        // false to everything, so `< min || > max` would wave it through.
        const double parsed = get_double(key, 0.0);
        if (!(parsed >= spec->min_value && parsed <= spec->max_value)) {
          throw std::invalid_argument("SolverOptions: option '" + key + "' = " + value +
                                      " out of range (expected " + spec->type_label() + ")");
        }
        break;
      }
      case OptionType::kEnum: {
        const bool allowed = std::find(spec->enum_values.begin(), spec->enum_values.end(),
                                       value) != spec->enum_values.end();
        if (!allowed) {
          throw std::invalid_argument("SolverOptions: option '" + key + "' = '" + value +
                                      "' is not one of " + spec->type_label());
        }
        break;
      }
    }
  }
}

bool SolverOptions::get_bool(const std::string& key, bool fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  const std::string value = lowercase(it->second);
  if (value == "1" || value == "true" || value == "yes" || value == "on") return true;
  if (value == "0" || value == "false" || value == "no" || value == "off") return false;
  throw std::invalid_argument("SolverOptions: option '" + key + "' expects a boolean, got '" +
                              it->second + "'");
}

std::string SolverOptions::str() const {
  std::string out;
  for (const auto& [key, value] : entries_) {
    if (!out.empty()) out.push_back(',');
    out += key;
    out.push_back('=');
    out += value;
  }
  return out;
}

}  // namespace malsched
