#include "codecs/json/json_writer.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace iotsim::codecs::json {

std::string escape_string(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

void write_number(std::ostringstream& os, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    os << "null";  // JSON has no NaN/Inf
    return;
  }
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    os << static_cast<long long>(d);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    os << buf;
  }
}

void write(std::ostringstream& os, const Value& v) {
  if (v.is_null()) {
    os << "null";
  } else if (v.is_bool()) {
    os << (v.as_bool() ? "true" : "false");
  } else if (v.is_number()) {
    write_number(os, v.as_number());
  } else if (v.is_string()) {
    os << '"' << escape_string(v.as_string()) << '"';
  } else if (v.is_array()) {
    const auto& arr = v.as_array();
    os << '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i > 0) os << ',';
      write(os, arr[i]);
    }
    os << ']';
  } else {
    const auto& obj = v.as_object();
    os << '{';
    std::size_t i = 0;
    for (const auto& [key, val] : obj) {
      if (i++ > 0) os << ',';
      os << '"' << escape_string(key) << "\":";
      write(os, val);
    }
    os << '}';
  }
}

}  // namespace

std::string dump(const Value& v) {
  std::ostringstream os;
  write(os, v);
  return os.str();
}

}  // namespace iotsim::codecs::json
