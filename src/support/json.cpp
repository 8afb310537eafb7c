#include "support/json.hpp"

#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace malsched {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::accept_value(const char* what) {
  // A second top-level value cannot reach here: finishing the first one
  // always sets done_, which the first check rejects.
  if (done_) throw std::logic_error(std::string("JsonWriter: ") + what + " after the document closed");
  if (stack_.empty()) return;
  if (stack_.back() == Frame::kObject && !key_pending_) {
    throw std::logic_error(std::string("JsonWriter: ") + what + " inside an object requires key() first");
  }
  if (stack_.back() == Frame::kArray) {
    if (!first_in_frame_.back()) out_ += ',';
    first_in_frame_.back() = false;
  }
  key_pending_ = false;
}

void JsonWriter::begin_object() {
  accept_value("begin_object");
  out_ += '{';
  stack_.push_back(Frame::kObject);
  first_in_frame_.push_back(true);
}

void JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Frame::kObject || key_pending_) {
    throw std::logic_error("JsonWriter: end_object without a matching open object");
  }
  out_ += '}';
  stack_.pop_back();
  first_in_frame_.pop_back();
  if (stack_.empty()) done_ = true;
}

void JsonWriter::begin_array() {
  accept_value("begin_array");
  out_ += '[';
  stack_.push_back(Frame::kArray);
  first_in_frame_.push_back(true);
}

void JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Frame::kArray) {
    throw std::logic_error("JsonWriter: end_array without a matching open array");
  }
  out_ += ']';
  stack_.pop_back();
  first_in_frame_.pop_back();
  if (stack_.empty()) done_ = true;
}

void JsonWriter::key(std::string_view name) {
  if (done_ || stack_.empty() || stack_.back() != Frame::kObject) {
    throw std::logic_error("JsonWriter: key() is only valid inside an object");
  }
  if (key_pending_) throw std::logic_error("JsonWriter: key() twice without a value");
  if (!first_in_frame_.back()) out_ += ',';
  first_in_frame_.back() = false;
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  key_pending_ = true;
}

void JsonWriter::value(std::string_view text) {
  accept_value("value");
  out_ += '"';
  out_ += json_escape(text);
  out_ += '"';
  if (stack_.empty()) done_ = true;
}

void JsonWriter::value(const char* text) {
  if (text == nullptr) throw std::logic_error("JsonWriter: null C string");
  value(std::string_view(text));
}

void JsonWriter::value(bool flag) {
  accept_value("value");
  out_ += flag ? "true" : "false";
  if (stack_.empty()) done_ = true;
}

void JsonWriter::value(int number) { value(static_cast<long long>(number)); }

void JsonWriter::value(long number) { value(static_cast<long long>(number)); }

void JsonWriter::value(unsigned number) { value(static_cast<unsigned long long>(number)); }

void JsonWriter::value(unsigned long number) { value(static_cast<unsigned long long>(number)); }

void JsonWriter::value(long long number) {
  accept_value("value");
  out_ += std::to_string(number);
  if (stack_.empty()) done_ = true;
}

void JsonWriter::value(unsigned long long number) {
  accept_value("value");
  out_ += std::to_string(number);
  if (stack_.empty()) done_ = true;
}

void JsonWriter::value(double number) {
  accept_value("value");
  if (!std::isfinite(number)) {
    out_ += "null";
  } else {
    // %.17g round-trips every double and is deterministic for identical
    // bits, so equal artifacts mean equal values. (std::to_chars
    // for floating point needs gcc >= 11; the toolchain floor is gcc 10.)
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", number);
    std::string text(buffer);
    // snprintf honors LC_NUMERIC; under e.g. de_DE the decimal separator
    // comes out as ',' (possibly multi-byte in other locales), which is not
    // JSON. Normalize via localeconv so an embedding application's
    // setlocale() cannot corrupt the artifact.
    const char* decimal_point = std::localeconv()->decimal_point;
    if (decimal_point != nullptr && std::string_view(decimal_point) != ".") {
      const auto at = text.find(decimal_point);
      if (at != std::string::npos) {
        // erase+insert instead of replace(pos, n, "."): gcc 12 -Wrestrict
        // misfires on replace-with-literal at -O2 (GCC PR 105651).
        text.erase(at, std::strlen(decimal_point));
        text.insert(at, 1, '.');
      }
    }
    out_ += text;
  }
  if (stack_.empty()) done_ = true;
}

const std::string& JsonWriter::str() const {
  if (!done_) {
    throw std::logic_error(stack_.empty() ? "JsonWriter: str() before any value was written"
                                          : "JsonWriter: str() with unclosed containers");
  }
  return out_;
}

}  // namespace malsched
