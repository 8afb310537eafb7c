#include "registry/option_spec.hpp"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <utility>

namespace malsched {

namespace {

/// Shortest decimal rendering that round-trips the defaults we register
/// (0.01 -> "0.01", 96 -> "96"); ostream default precision is enough and
/// avoids std::to_string's trailing zeros.
std::string render_number(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

}  // namespace

std::string to_string(OptionType type) {
  switch (type) {
    case OptionType::kBool: return "bool";
    case OptionType::kInt: return "int";
    case OptionType::kDouble: return "double";
    case OptionType::kEnum: return "enum";
  }
  return "unknown";
}

OptionSpec OptionSpec::boolean(std::string name, bool default_value, std::string help) {
  OptionSpec spec;
  spec.name = std::move(name);
  spec.type = OptionType::kBool;
  // push_back, not ="1": gcc 12 -Wrestrict misfires on literal assignment
  // here under -O3 (GCC PR 105651), same workaround as support/strings.hpp.
  spec.default_value.push_back(default_value ? '1' : '0');
  spec.help = std::move(help);
  return spec;
}

OptionSpec OptionSpec::integer(std::string name, int default_value, int min_value, int max_value,
                               std::string help) {
  OptionSpec spec;
  spec.name = std::move(name);
  spec.type = OptionType::kInt;
  spec.default_value = std::to_string(default_value);
  spec.min_value = min_value;
  spec.max_value = max_value;
  spec.help = std::move(help);
  return spec;
}

OptionSpec OptionSpec::real(std::string name, double default_value, double min_value,
                            double max_value, std::string help) {
  OptionSpec spec;
  spec.name = std::move(name);
  spec.type = OptionType::kDouble;
  spec.default_value = render_number(default_value);
  spec.min_value = min_value;
  spec.max_value = max_value;
  spec.help = std::move(help);
  return spec;
}

OptionSpec OptionSpec::enumeration(std::string name, std::string default_value,
                                   std::vector<std::string> values, std::string help) {
  OptionSpec spec;
  spec.name = std::move(name);
  spec.type = OptionType::kEnum;
  spec.default_value = std::move(default_value);
  spec.enum_values = std::move(values);
  spec.help = std::move(help);
  return spec;
}

std::string OptionSpec::type_label() const {
  switch (type) {
    case OptionType::kBool:
      return to_string(type);
    case OptionType::kInt:
    case OptionType::kDouble: {
      std::string out = to_string(type);
      const bool bounded_below = min_value > -std::numeric_limits<double>::infinity();
      const bool bounded_above = max_value < std::numeric_limits<double>::infinity();
      // Integer bounds render exactly (1048576, not 1.04858e+06): the bound
      // in an out-of-range error must be the number the user can type.
      const auto bound = [this](double value) {
        return type == OptionType::kInt ? std::to_string(static_cast<long long>(value))
                                        : render_number(value);
      };
      if (bounded_below || bounded_above) {
        out += " in [";
        out += bounded_below ? bound(min_value) : "-inf";
        out += ", ";
        out += bounded_above ? bound(max_value) : "inf";
        out += "]";
      }
      return out;
    }
    case OptionType::kEnum: {
      std::string out;
      for (const auto& value : enum_values) {
        if (!out.empty()) out.push_back('|');
        out += value;
      }
      return out;
    }
  }
  return "unknown";
}

std::string option_table(const std::vector<OptionSpec>& specs, const std::string& indent) {
  if (specs.empty()) return {};
  std::size_t name_width = 0;
  std::size_t type_width = 0;
  std::size_t default_width = 0;
  for (const auto& spec : specs) {
    name_width = std::max(name_width, spec.name.size());
    type_width = std::max(type_width, spec.type_label().size());
    default_width = std::max(default_width, std::max<std::size_t>(spec.default_value.size(), 1));
  }
  std::string out;
  for (const auto& spec : specs) {
    std::string line = indent;
    const auto pad = [&line](const std::string& text, std::size_t width) {
      line += text;
      line.append(width - text.size() + 2, ' ');
    };
    pad(spec.name, name_width);
    pad(spec.type_label(), type_width);
    pad(spec.default_value.empty() ? "-" : spec.default_value, default_width);
    line += spec.help;
    out += line;
    out.push_back('\n');
  }
  return out;
}

int edit_distance(const std::string& a, const std::string& b) {
  // Single-row DP; the strings here are option keys (tens of characters).
  std::vector<int> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = static_cast<int>(j);
  for (std::size_t i = 1; i <= a.size(); ++i) {
    int diagonal = row[0];
    row[0] = static_cast<int>(i);
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const int substitute = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
    }
  }
  return row[b.size()];
}

std::string closest_option_name(const std::string& key, const std::vector<OptionSpec>& specs) {
  constexpr int kMaxSuggestDistance = 2;
  std::string best;
  int best_distance = kMaxSuggestDistance + 1;
  for (const auto& spec : specs) {
    const int distance = edit_distance(key, spec.name);
    if (distance < best_distance) {
      best_distance = distance;
      best = spec.name;
    }
  }
  return best;
}

}  // namespace malsched
