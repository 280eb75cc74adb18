#include "qdsim/ir/json.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>

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

/** Value of one hex digit, or -1. */
int
hex_digit(char h)
{
    if (h >= '0' && h <= '9') {
        return h - '0';
    }
    if (h >= 'a' && h <= 'f') {
        return h - 'a' + 10;
    }
    if (h >= 'A' && h <= 'F') {
        return h - 'A' + 10;
    }
    return -1;
}

/**
 * The form "%a" (and so the .qdj encoder) writes a normal double or a
 * zero in, after the sign: "0x1[.h...]p±d" with at most 13 fraction
 * digits and a normal exponent, or "0x0p+0". Such a value needs no
 * rounding, so its bits are assembled directly; false for anything else.
 */
bool
canonical_hex(const char* p, const char* end, bool negative, double& out)
{
    const std::uint64_t sign = negative ? std::uint64_t{1} << 63 : 0;
    if (end - p == 6 && std::memcmp(p, "0x0p+0", 6) == 0) {
        out = std::bit_cast<double>(sign);
        return true;
    }
    if (end - p < 6 || std::memcmp(p, "0x1", 3) != 0) {
        return false;
    }
    p += 3;
    std::uint64_t fraction = 0;
    int digits = 0;
    if (*p == '.') {
        for (++p; p != end && digits < 13 && hex_digit(*p) >= 0; ++p) {
            fraction = fraction << 4 | static_cast<unsigned>(hex_digit(*p));
            ++digits;
        }
        if (digits == 0) {
            return false;
        }
    }
    if (end - p < 3 || p[0] != 'p' || (p[1] != '+' && p[1] != '-')) {
        return false;
    }
    const bool down = p[1] == '-';
    int exponent = 0;
    int exponent_digits = 0;
    for (p += 2; p != end && *p >= '0' && *p <= '9' && exponent_digits < 5;
         ++p) {
        exponent = exponent * 10 + (*p - '0');
        ++exponent_digits;
    }
    exponent = down ? -exponent : exponent;
    if (p != end || exponent_digits == 0 || exponent < -1022 ||
        exponent > 1023) {
        return false;
    }
    out = std::bit_cast<double>(
        sign | static_cast<std::uint64_t>(exponent + 1023) << 52 |
        fraction << (4 * (13 - digits)));
    return true;
}

}  // namespace

bool
parse_real(std::string_view s, double& out)
{
    const char* const end = s.data() + s.size();
    const char* p = s.data();
    const bool negative = p != end && *p == '-';
    if (negative) {
        ++p;
    }
    if (canonical_hex(p, end, negative, out)) {
        return true;
    }
    const std::string copy(s);  // strtod needs a terminated string
    char* stop = nullptr;
    out = std::strtod(copy.c_str(), &stop);
    return !copy.empty() && stop == copy.c_str() + copy.size();
}

namespace {

// Untrusted input: bound recursion so a deeply nested document cannot
// overflow the stack (real .qdj nesting is < 10).
constexpr int kMaxDepth = 64;

using Kind = Value::Kind;

/** Length of the run at `p` free of '"', '\\' and '\n' (the bytes that
 *  end or escape a string). */
std::size_t
plain_run(const char* p, const char* end)
{
    const char* q = p;
    while (q != end && *q != '"' && *q != '\\' && *q != '\n') {
        ++q;
    }
    return static_cast<std::size_t>(q - p);
}

/** The validating pass: one recursive descent that records the tape. */
class Scanner {
  public:
    Scanner(std::string_view text, std::vector<Node>& nodes)
        : text_(text), nodes_(nodes)
    {
    }

    void run()
    {
        if (text_.size() >= std::numeric_limits<std::uint32_t>::max()) {
            fail("document too large (max 4 GiB)");
        }
        value(0);
        skip_ws();
        if (pos_ != text_.size()) {
            fail("trailing characters after the JSON document");
        }
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

    void literal(std::string_view lit)
    {
        if (text_.compare(pos_, lit.size(), lit) != 0) {
            fail("invalid literal");
        }
        pos_ += lit.size();
    }

    std::uint32_t push(Kind kind)
    {
        Node n;
        n.begin = static_cast<std::uint32_t>(pos_);
        n.kind = kind;
        nodes_.push_back(n);
        return static_cast<std::uint32_t>(nodes_.size() - 1);
    }

    void value(int depth)
    {
        if (depth > kMaxDepth) {
            fail("nesting too deep");
        }
        skip_ws();
        const char c = peek();
        const Kind kind = c == '{'   ? Kind::kObject
                          : c == '[' ? Kind::kArray
                          : c == '"' ? Kind::kString
                          : c == 't' || c == 'f' ? Kind::kBool
                          : c == 'n' ? Kind::kNull
                                     : Kind::kNumber;
        const std::uint32_t at = push(kind);
        switch (c) {
        case '{': object(depth); break;
        case '[': array(depth); break;
        case '"': string(at); break;
        case 't': literal("true"); break;
        case 'f': literal("false"); break;
        case 'n': literal("null"); break;
        default: number(at); break;
        }
        Node& n = nodes_[at];
        if (kind != Kind::kString) {
            n.end = static_cast<std::uint32_t>(pos_);
        }
        n.next = static_cast<std::uint32_t>(nodes_.size());
    }

    void object(int depth)
    {
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
            const std::uint32_t key = push(Kind::kString);
            string(key);
            nodes_[key].next = key + 1;
            skip_ws();
            expect(':');
            value(depth + 1);
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return;
        }
    }

    void array(int depth)
    {
        expect('[');
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return;
        }
        while (true) {
            value(depth + 1);
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return;
        }
    }

    /** Validates a string (escapes included) and records its content
     *  span in node `at`. */
    void string(std::uint32_t at)
    {
        expect('"');
        const std::size_t start = pos_;
        bool escaped = false;
        while (true) {
            pos_ += plain_run(text_.data() + pos_,
                              text_.data() + text_.size());
            if (pos_ >= text_.size()) {
                fail("unterminated string");
            }
            const char c = text_[pos_++];
            if (c == '"') {
                break;
            }
            if (c == '\n') {
                fail("raw newline inside string");
            }
            escaped = true;  // c is a backslash
            if (pos_ >= text_.size()) {
                fail("unterminated escape");
            }
            switch (text_[pos_++]) {
            case '"': case '\\': case '/': case 'b': case 'f': case 'n':
            case 'r': case 't':
                break;
            case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const int h = hex_digit(text_[pos_++]);
                    if (h < 0) {
                        fail("invalid \\u escape");
                    }
                    code = code << 4 | static_cast<unsigned>(h);
                }
                // Surrogate pairs are not needed for gate names; a lone
                // surrogate is rejected.
                if (code >= 0xD800 && code <= 0xDFFF) {
                    fail("surrogate \\u escapes are not supported");
                }
                break;
            }
            default:
                fail("invalid escape character");
            }
        }
        Node& n = nodes_[at];
        n.begin = static_cast<std::uint32_t>(start);
        n.end = static_cast<std::uint32_t>(pos_ - 1);
        n.escaped = escaped;
    }

    void number(std::uint32_t at)
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
        // [-]digits always reads in full; anything else must read in
        // full as strtod reads it.
        double unused = 0;
        if (!integral &&
            !parse_real(text_.substr(start, pos_ - start), unused)) {
            fail("malformed number");
        }
        nodes_[at].integral = integral;
    }

    std::string_view text_;
    std::vector<Node>& nodes_;
    std::size_t pos_ = 0;
    int line_ = 1;
};

/** Builds the DOM from a tape, in tape order (so lines are counted in one
 *  forward sweep). */
class DomAssembler {
  public:
    explicit DomAssembler(const Tape& tape) : tape_(tape) {}

    Value build(Tape::Ix i)
    {
        const Node& n = tape_[i];
        Value v;
        v.kind = n.kind;
        const std::string_view text = tape_.text();
        line_ += static_cast<int>(std::count(text.begin() + counted_,
                                             text.begin() + n.begin, '\n'));
        counted_ = n.begin;
        v.line = line_;
        switch (n.kind) {
        case Kind::kObject:
            for (Tape::Ix c = i + 1; c < n.next; c = tape_[c + 1].next) {
                std::string key = tape_.string(c);
                v.object.emplace_back(std::move(key), build(c + 1));
            }
            break;
        case Kind::kArray:
            for (Tape::Ix c = i + 1; c < n.next; c = tape_[c].next) {
                v.array.push_back(build(c));
            }
            break;
        case Kind::kString:
            v.string = tape_.string(i);
            break;
        case Kind::kBool:
            v.boolean = text[n.begin] == 't';
            break;
        case Kind::kNumber: {
            v.number = tape_.real(i);
            const Integer k = tape_.integer(i);
            v.integral = k.ok;
            v.above_i64 = k.above_i64;
            v.integer = k.value;
            break;
        }
        case Kind::kNull:
            break;
        }
        return v;
    }

  private:
    const Tape& tape_;
    std::size_t counted_ = 0;  ///< text offset the line count reaches
    int line_ = 1;
};

}  // namespace

int
Tape::line(Ix i) const
{
    return 1 + static_cast<int>(std::count(
                   text_.begin(), text_.begin() + nodes_[i].begin, '\n'));
}

Tape::Ix
Tape::find(Ix obj, std::string_view key) const
{
    for (Ix c = obj + 1; c < nodes_[obj].next; c = nodes_[c + 1].next) {
        if (nodes_[c].escaped ? string(c) == key : raw(c) == key) {
            return c + 1;
        }
    }
    return kNone;
}

std::string
Tape::string(Ix i) const
{
    const std::string_view s = raw(i);
    if (!nodes_[i].escaped) {
        return std::string(s);
    }
    // Escapes were validated by scan(), and none decodes longer than it
    // is written.
    std::string out(s.size(), '\0');
    char* w = out.data();
    for (std::size_t pos = 0; pos < s.size();) {
        const char c = s[pos++];
        if (c != '\\') {
            *w++ = c;
            continue;
        }
        switch (const char e = s[pos++]) {
        case 'b': *w++ = '\b'; break;
        case 'f': *w++ = '\f'; break;
        case 'n': *w++ = '\n'; break;
        case 'r': *w++ = '\r'; break;
        case 't': *w++ = '\t'; break;
        case 'u': {
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
                code = code << 4 | static_cast<unsigned>(hex_digit(s[pos++]));
            }
            // UTF-8; scan() rejected surrogates.
            if (code < 0x80) {
                *w++ = static_cast<char>(code);
            } else if (code < 0x800) {
                *w++ = static_cast<char>(0xC0 | (code >> 6));
                *w++ = static_cast<char>(0x80 | (code & 0x3F));
            } else {
                *w++ = static_cast<char>(0xE0 | (code >> 12));
                *w++ = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                *w++ = static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
        }
        default: *w++ = e; break;  // '"', '\\', '/'
        }
    }
    out.resize(static_cast<std::size_t>(w - out.data()));
    return out;
}

double
Tape::real(Ix i) const
{
    double v = 0;
    parse_real(raw(i), v);  // validated by scan()
    return v;
}

Integer
Tape::integer(Ix i) const
{
    Integer k;
    if (!nodes_[i].integral) {
        return k;
    }
    const std::string_view s = raw(i);
    const char* const end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, k.value);
    if (ec == std::errc() && ptr == end) {
        k.ok = true;
    } else if (s[0] != '-') {
        unsigned long long u = 0;
        const auto [uptr, uec] = std::from_chars(s.data(), end, u);
        if (uec == std::errc() && uptr == end) {
            k.above_i64 = true;
            k.value = static_cast<long long>(u);
        }
    }
    return k;
}

Tape
scan(std::string_view text)
{
    Tape tape;
    tape.text_ = text;
    // Every node but the first takes at least two bytes of text (a value
    // and its separator, or a key's quotes), so the tape never regrows.
    tape.nodes_.reserve(text.size() / 2 + 2);
    Scanner(text, tape.nodes_).run();
    return tape;
}

Value
parse(std::string_view text)
{
    const Tape tape = scan(text);
    return DomAssembler(tape).build(0);
}

}  // namespace qd::ir::json
