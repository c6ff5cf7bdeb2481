#include "io/json.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace asilkit::io {
namespace {

const Json kNullJson{};

[[noreturn]] void type_error(const char* expected, Json::Type actual) {
    static constexpr const char* kNames[] = {"null", "bool", "number", "string", "array", "object"};
    throw IoError(std::string("json: expected ") + expected + ", got " +
                  kNames[static_cast<std::size_t>(actual)]);
}

}  // namespace

bool Json::as_bool() const {
    if (!is_bool()) type_error("bool", type());
    return std::get<bool>(value_);
}

double Json::as_number() const {
    if (!is_number()) type_error("number", type());
    return std::get<double>(value_);
}

std::int64_t Json::as_int() const {
    const double d = as_number();
    // Range first: converting a double outside [-2^63, 2^63) to int64 is
    // undefined behaviour.
    if (!(d >= -0x1p63 && d < 0x1p63)) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        throw IoError(std::string("json: number ") + buf + " is outside the integer range");
    }
    const auto i = static_cast<std::int64_t>(d);
    if (static_cast<double>(i) != d) throw IoError("json: number is not integral");
    return i;
}

const std::string& Json::as_string() const {
    if (!is_string()) type_error("string", type());
    return std::get<std::string>(value_);
}

const JsonArray& Json::as_array() const {
    if (!is_array()) type_error("array", type());
    return std::get<JsonArray>(value_);
}

JsonArray& Json::as_array() {
    if (!is_array()) type_error("array", type());
    return std::get<JsonArray>(value_);
}

const JsonObject& Json::as_object() const {
    if (!is_object()) type_error("object", type());
    return std::get<JsonObject>(value_);
}

JsonObject& Json::as_object() {
    if (!is_object()) type_error("object", type());
    return std::get<JsonObject>(value_);
}

bool Json::contains(const std::string& key) const {
    return is_object() && as_object().contains(key);
}

const Json& Json::at(const std::string& key) const {
    const JsonObject& obj = as_object();
    if (auto it = obj.find(key); it != obj.end()) return it->second;
    throw IoError("json: missing key '" + key + "'");
}

Json& Json::operator[](const std::string& key) {
    if (is_null()) value_ = JsonObject{};
    return as_object()[key];
}

const Json& Json::get_or_null(const std::string& key) const {
    if (is_object()) {
        const JsonObject& obj = as_object();
        if (auto it = obj.find(key); it != obj.end()) return it->second;
    }
    return kNullJson;
}

void Json::push_back(Json v) {
    if (is_null()) value_ = JsonArray{};
    as_array().push_back(std::move(v));
}

std::size_t Json::size() const {
    if (is_array()) return as_array().size();
    if (is_object()) return as_object().size();
    type_error("array or object", type());
}

// ---- writer ---------------------------------------------------------------

namespace {

void write_escaped(std::string& out, const std::string& s) {
    out += '"';
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void write_number(std::string& out, double d) {
    if (!std::isfinite(d)) throw IoError("json: cannot serialize non-finite number");
    if (d == std::floor(d) && std::fabs(d) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
        out += buf;
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
}

void write_value(std::string& out, const Json& v, int indent, int depth) {
    const bool pretty = indent >= 0;
    auto newline = [&](int d) {
        if (!pretty) return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent * d), ' ');
    };
    switch (v.type()) {
        case Json::Type::Null: out += "null"; break;
        case Json::Type::Bool: out += v.as_bool() ? "true" : "false"; break;
        case Json::Type::Number: write_number(out, v.as_number()); break;
        case Json::Type::String: write_escaped(out, v.as_string()); break;
        case Json::Type::Array: {
            const JsonArray& a = v.as_array();
            if (a.empty()) {
                out += "[]";
                break;
            }
            out += '[';
            for (std::size_t i = 0; i < a.size(); ++i) {
                if (i) out += ',';
                newline(depth + 1);
                write_value(out, a[i], indent, depth + 1);
            }
            newline(depth);
            out += ']';
            break;
        }
        case Json::Type::Object: {
            const JsonObject& o = v.as_object();
            if (o.empty()) {
                out += "{}";
                break;
            }
            out += '{';
            bool first = true;
            for (const auto& [key, val] : o) {
                if (!first) out += ',';
                first = false;
                newline(depth + 1);
                write_escaped(out, key);
                out += pretty ? ": " : ":";
                write_value(out, val, indent, depth + 1);
            }
            newline(depth);
            out += '}';
            break;
        }
    }
}

}  // namespace

std::string Json::dump(int indent) const {
    std::string out;
    write_value(out, *this, indent, 0);
    return out;
}

// ---- parser ---------------------------------------------------------------

namespace {

class Parser {
public:
    /// Deepest array/object nesting a document may have.  Model,
    /// lint-config and SARIF documents nest fewer than 10 levels.  The
    /// parser itself keeps open containers on the heap, but destroying,
    /// comparing and writing a Json value recurse once per level.
    static constexpr std::size_t kMaxDepth = 2048;

    explicit Parser(std::string_view text) : text_(text) {}

    Json parse_document() {
        Json v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        std::size_t line = 1;
        std::size_t col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        throw IoError("json parse error at line " + std::to_string(line) + ", column " +
                      std::to_string(col) + ": " + what);
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                ++pos_;
            } else {
                break;
            }
        }
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    char next() {
        const char c = peek();
        ++pos_;
        return c;
    }

    void expect(char c) {
        if (next() != c) {
            --pos_;
            fail(std::string("expected '") + c + "'");
        }
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) == lit) {
            pos_ += lit.size();
            return true;
        }
        return false;
    }

    /// An array or object whose closing bracket is still ahead; an
    /// object carries the key of the member being parsed.
    struct OpenContainer {
        Json value;
        std::string key;
    };

    /// Iterative descent: the containers still open live in `open`, so
    /// nesting costs heap rather than stack.
    Json parse_value() {
        std::vector<OpenContainer> open;
        for (;;) {
            skip_ws();
            const char c = peek();
            Json value;
            if (c == '{' || c == '[') {
                if (open.size() == kMaxDepth) {
                    fail("nesting deeper than " + std::to_string(kMaxDepth));
                }
                ++pos_;
                value = c == '{' ? Json::object() : Json::array();
                skip_ws();
                if (peek() != (c == '{' ? '}' : ']')) {
                    open.emplace_back().value = std::move(value);
                    if (c == '{') open.back().key = parse_key();
                    continue;  // on to the first member
                }
                ++pos_;  // empty container
            } else {
                value = parse_scalar(c);
            }
            // Store `value` in the innermost open container; each one
            // that closes here becomes the value for the next one out.
            for (;;) {
                if (open.empty()) return value;
                OpenContainer& top = open.back();
                const bool object = top.value.is_object();
                if (object) {
                    top.value.as_object().emplace(std::move(top.key), std::move(value));
                } else {
                    top.value.as_array().push_back(std::move(value));
                }
                skip_ws();
                const char sep = next();
                if (sep == ',') {
                    if (object) top.key = parse_key();
                    break;
                }
                if (sep != (object ? '}' : ']')) {
                    --pos_;
                    fail(object ? "expected ',' or '}' in object" : "expected ',' or ']' in array");
                }
                value = std::move(top.value);
                open.pop_back();
            }
        }
    }

    /// An object member's `"key" :`.
    std::string parse_key() {
        skip_ws();
        if (peek() != '"') fail("expected object key");
        std::string key = parse_string();
        skip_ws();
        expect(':');
        return key;
    }

    Json parse_scalar(char c) {
        switch (c) {
            case '"': return Json(parse_string());
            case 't':
                if (consume_literal("true")) return Json(true);
                fail("invalid literal");
            case 'f':
                if (consume_literal("false")) return Json(false);
                fail("invalid literal");
            case 'n':
                if (consume_literal("null")) return Json(nullptr);
                fail("invalid literal");
            default: return parse_number();
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            const char c = next();
            if (c == '"') return out;
            if (c == '\\') {
                const char e = next();
                switch (e) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'u': out += parse_unicode_escape(); break;
                    default: --pos_; fail("invalid escape sequence");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                --pos_;
                fail("unescaped control character in string");
            } else {
                out += c;
            }
        }
    }

    std::string parse_unicode_escape() {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = next();
            code <<= 4;
            if (c >= '0' && c <= '9') {
                code |= static_cast<unsigned>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                code |= static_cast<unsigned>(c - 'a' + 10);
            } else if (c >= 'A' && c <= 'F') {
                code |= static_cast<unsigned>(c - 'A' + 10);
            } else {
                --pos_;
                fail("invalid \\u escape");
            }
        }
        // Surrogate pair handling for non-BMP code points.
        unsigned codepoint = code;
        if (code >= 0xD800 && code <= 0xDBFF) {
            if (!consume_literal("\\u")) fail("unpaired high surrogate");
            unsigned low = 0;
            for (int i = 0; i < 4; ++i) {
                const char c = next();
                low <<= 4;
                if (c >= '0' && c <= '9') {
                    low |= static_cast<unsigned>(c - '0');
                } else if (c >= 'a' && c <= 'f') {
                    low |= static_cast<unsigned>(c - 'a' + 10);
                } else if (c >= 'A' && c <= 'F') {
                    low |= static_cast<unsigned>(c - 'A' + 10);
                } else {
                    --pos_;
                    fail("invalid \\u escape");
                }
            }
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            codepoint = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate");
        }
        // Encode as UTF-8.
        std::string out;
        if (codepoint < 0x80) {
            out += static_cast<char>(codepoint);
        } else if (codepoint < 0x800) {
            out += static_cast<char>(0xC0 | (codepoint >> 6));
            out += static_cast<char>(0x80 | (codepoint & 0x3F));
        } else if (codepoint < 0x10000) {
            out += static_cast<char>(0xE0 | (codepoint >> 12));
            out += static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (codepoint & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (codepoint >> 18));
            out += static_cast<char>(0x80 | ((codepoint >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (codepoint & 0x3F));
        }
        return out;
    }

    Json parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        if (pos_ >= text_.size()) fail("truncated number");
        if (text_[pos_] == '0') {
            ++pos_;
        } else if (text_[pos_] >= '1' && text_[pos_] <= '9') {
            while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
        } else {
            fail("invalid number");
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
                fail("invalid number fraction");
            }
            while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
            if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
                fail("invalid number exponent");
            }
            while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
        }
        const std::string token(text_.substr(start, pos_ - start));
        try {
            return Json(std::stod(token));
        } catch (const std::exception&) {
            fail("number out of range");
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

Json load_json_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot open '" + path + "' for reading");
    std::ostringstream ss;
    ss << in.rdbuf();
    return Json::parse(ss.str());
}

void save_json_file(const Json& value, const std::string& path) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw IoError("cannot open '" + path + "' for writing");
    out << value.dump(2) << '\n';
    if (!out) throw IoError("write to '" + path + "' failed");
}

}  // namespace asilkit::io
