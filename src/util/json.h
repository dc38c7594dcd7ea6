// Minimal JSON string escaping shared by the emitters (sweep results,
// perfbench). Escapes quotes, backslashes and ASCII control
// characters; other bytes pass through unchanged (output is UTF-8 when
// the input is).
#pragma once

#include <cstdio>
#include <string>

namespace cachesched {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace cachesched
