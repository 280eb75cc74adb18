#include "qdsim/ir/json.h"

#include <cerrno>
#include <cstdlib>

namespace qd::ir::json {

const Value*
Value::find(std::string_view key) const
{
    for (const auto& [k, v] : object) {
        if (k == key) {
            return &v;
        }
    }
    return nullptr;
}

namespace {

// Untrusted input: bound recursion so a deeply nested document cannot
// overflow the stack (real .qdj nesting is < 10).
constexpr int kMaxDepth = 64;

class Parser {
 public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value run()
    {
        Value v = parse_value(0);
        skip_ws();
        if (pos_ != text_.size()) {
            fail("trailing characters after the JSON document");
        }
        return v;
    }

 private:
    [[noreturn]] void fail(const std::string& what) const
    {
        throw ParseError({"qdj.syntax", what, line_, -1});
    }

    void skip_ws()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '\n') {
                ++line_;
            } else if (c != ' ' && c != '\t' && c != '\r') {
                break;
            }
            ++pos_;
        }
    }

    char peek()
    {
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[pos_];
    }

    void expect(char c)
    {
        if (pos_ >= text_.size() || text_[pos_] != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++pos_;
    }

    bool consume_literal(std::string_view lit)
    {
        if (text_.compare(pos_, lit.size(), lit) != 0) {
            return false;
        }
        pos_ += lit.size();
        return true;
    }

    Value parse_value(int depth)
    {
        if (depth > kMaxDepth) {
            fail("nesting too deep");
        }
        skip_ws();
        Value v;
        v.line = line_;
        const char c = peek();
        switch (c) {
        case '{':
            parse_object(v, depth);
            break;
        case '[':
            parse_array(v, depth);
            break;
        case '"':
            v.kind = Value::Kind::kString;
            v.string = parse_string();
            break;
        case 't':
            if (!consume_literal("true")) {
                fail("invalid literal");
            }
            v.kind = Value::Kind::kBool;
            v.boolean = true;
            break;
        case 'f':
            if (!consume_literal("false")) {
                fail("invalid literal");
            }
            v.kind = Value::Kind::kBool;
            break;
        case 'n':
            if (!consume_literal("null")) {
                fail("invalid literal");
            }
            break;
        default:
            parse_number(v);
            break;
        }
        return v;
    }

    void parse_object(Value& v, int depth)
    {
        v.kind = Value::Kind::kObject;
        expect('{');
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return;
        }
        while (true) {
            skip_ws();
            if (peek() != '"') {
                fail("expected a string object key");
            }
            std::string key = parse_string();
            skip_ws();
            expect(':');
            v.object.emplace_back(std::move(key), parse_value(depth + 1));
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return;
        }
    }

    void parse_array(Value& v, int depth)
    {
        v.kind = Value::Kind::kArray;
        expect('[');
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return;
        }
        while (true) {
            v.array.push_back(parse_value(depth + 1));
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return;
        }
    }

    std::string parse_string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
            }
            const char c = text_[pos_++];
            if (c == '"') {
                return out;
            }
            if (c == '\n') {
                fail("raw newline inside string");
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) {
                fail("unterminated escape");
            }
            const char e = text_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9') {
                        code |= static_cast<unsigned>(h - '0');
                    } else if (h >= 'a' && h <= 'f') {
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    } else if (h >= 'A' && h <= 'F') {
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    } else {
                        fail("invalid \\u escape");
                    }
                }
                // Encode the code point as UTF-8 (surrogate pairs are not
                // needed for gate names; a lone surrogate is rejected).
                if (code >= 0xD800 && code <= 0xDFFF) {
                    fail("surrogate \\u escapes are not supported");
                }
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default:
                fail("invalid escape character");
            }
        }
    }

    void parse_number(Value& v)
    {
        const std::size_t start = pos_;
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            ++pos_;
        }
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
            fail("invalid value");
        }
        const std::string token(text_.substr(start, pos_ - start));
        char* end = nullptr;
        errno = 0;
        v.kind = Value::Kind::kNumber;
        v.number = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            fail("malformed number");
        }
        if (integral) {
            errno = 0;
            char* iend = nullptr;
            const long long i = std::strtoll(token.c_str(), &iend, 10);
            if (errno == 0 && iend == token.c_str() + token.size()) {
                v.integral = true;
                v.integer = i;
            } else if (token[0] != '-') {
                errno = 0;
                const unsigned long long u =
                    std::strtoull(token.c_str(), &iend, 10);
                if (errno == 0 && iend == token.c_str() + token.size()) {
                    v.above_i64 = true;
                    v.integer = static_cast<long long>(u);
                }
            }
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int line_ = 1;
};

}  // namespace

Value
parse(std::string_view text)
{
    return Parser(text).run();
}

}  // namespace qd::ir::json
