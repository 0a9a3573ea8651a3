// The one JSON string escaper: every surface that emits JSON (the NDJSON
// alert sink, the bench reporters) and the Prometheus label renderer (whose
// escape rules are a subset) route through here, so escaping bugs have a
// single home.
#pragma once

#include <string>
#include <string_view>

#include "util/bytes.hpp"

namespace vpm::telemetry {

// Appends `s` to `out` with ", \, and control bytes escaped (RFC 8259).
// Bytes >= 0x80 pass through untouched: inputs are either UTF-8 already or
// raw pattern bytes the consumer treats as opaque.
void json_escape(std::string_view s, std::string& out);

// Writes json_escape(util::escape_bytes(bytes)) — raw pattern bytes in
// their printable \xHH form, JSON-escaped — at `out` in one pass with no
// temporary, and returns the end: printable ASCII passes (the quote
// escaped), every other byte and the backslash become \\xHH.  The caller
// provides room for 5 * bytes.size() chars.
char* json_escape_printable(util::ByteView bytes, char* out);

inline std::string json_escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  json_escape(s, out);
  return out;
}

}  // namespace vpm::telemetry
