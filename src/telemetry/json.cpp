#include "telemetry/json.hpp"

#include <cstdio>

namespace vpm::telemetry {

void json_escape(std::string_view s, std::string& out) {
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

char* json_escape_printable(util::ByteView bytes, char* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const std::uint8_t c : bytes) {
    if (c >= 0x20 && c < 0x7F && c != '\\') {
      if (c == '"') *out++ = '\\';
      *out++ = static_cast<char>(c);
    } else {
      *out++ = '\\';
      *out++ = '\\';
      *out++ = 'x';
      *out++ = kHex[c >> 4];
      *out++ = kHex[c & 0xF];
    }
  }
  return out;
}

}  // namespace vpm::telemetry
