// Compact JSON serialisation with standard escaping.
#pragma once

#include <string>

#include "codecs/json/json_value.h"

namespace iotsim::codecs::json {

/// Compact serialisation: {"a":1,"b":[true,null]}
[[nodiscard]] std::string dump(const Value& v);

/// Escapes a string body per RFC 8259 (quotes not included).
[[nodiscard]] std::string escape_string(const std::string& s);

}  // namespace iotsim::codecs::json
