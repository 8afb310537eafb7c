#pragma once

#include <iosfwd>
#include <string>

#include "model/instance.hpp"

/// Plain-text serialization of instances so experiments can be archived and
/// replayed outside the generator.
///
/// Format (one task per line, whitespace separated):
///
///     malsched-instance v1
///     m <machines>
///     task <name-or-dash> t(1) t(2) ... t(m)
///     ...
namespace malsched {

/// Writes `instance` to `out` in the format above. Throws
/// std::invalid_argument, before writing anything, when the text would not
/// read back as the same content: a task name that is "-" or holds
/// whitespace, or a profile longer than m.
void write_instance(std::ostream& out, const Instance& instance);

/// Parses an instance; throws std::runtime_error with a line diagnostic on
/// malformed input (including monotonicity violations).
[[nodiscard]] Instance read_instance(std::istream& in);

/// Convenience round-trips through strings.
[[nodiscard]] std::string instance_to_string(const Instance& instance);
[[nodiscard]] Instance instance_from_string(const std::string& text);

}  // namespace malsched
