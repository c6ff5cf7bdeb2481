// JSON string escaping for the obs exports (metrics snapshots, traces,
// span profiles).  Ids and span names are dotted ASCII by convention,
// but a malformed one must not corrupt the file.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace asilkit::obs {

/// `s` as the body of a JSON string: `"` and `\` backslash-escaped,
/// control characters as \u00XX, every other byte as it is.
inline std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

}  // namespace asilkit::obs
