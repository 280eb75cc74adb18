/**
 * @file json.h
 * JSON reader for the .qdj circuit IR and the serving protocol.
 *
 * One grammar, two views of it:
 *   - `scan` validates a whole document in one pass and records it as a
 *     flat tape of nodes: byte spans into the text, with no copies of
 *     strings and no numbers converted. The .qdj decoder (ir.cc) reads
 *     members straight off the tape, so syntax errors anywhere in a
 *     document win over every semantic check.
 *   - `parse` builds a DOM (`Value`) from the tape, with per-value source
 *     lines. The small NDJSON frames (serve/protocol.cc) and tools use it.
 *
 * Deliberately dependency-free: the IR must parse in every build the
 * simulator builds in. Syntax failures throw ir::ParseError with the
 * stable id "qdj.syntax". Numbers accept exactly what strtod accepts over
 * the whole token; documents are limited to 4 GiB (tape offsets are
 * 32-bit).
 */
#ifndef QDSIM_IR_JSON_H
#define QDSIM_IR_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qdsim/ir/errors.h"

namespace qd::ir::json {

/** One parsed JSON value. */
struct Value {
    enum class Kind : std::uint8_t {
        kNull, kBool, kNumber, kString, kArray, kObject
    };

    Kind kind = Kind::kNull;
    int line = 1;          ///< 1-based source line where the value starts
    bool boolean = false;  ///< kBool payload
    double number = 0;     ///< kNumber payload
    bool integral = false; ///< number was written as an integer and fits i64
    /** Number was written as an integer in [2^63, 2^64): past i64 but
     *  within u64, the range of 64-bit seeds. `integer` then holds it
     *  modulo 2^64. */
    bool above_i64 = false;
    long long integer = 0; ///< integer value when `integral` or `above_i64`
    std::string string;    ///< kString payload
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    bool is(Kind k) const { return kind == k; }

    /** First member with `key`, or nullptr (valid only for kObject). */
    const Value* find(std::string_view key) const;
};

/**
 * One value (or object key) of a scanned document. Children follow their
 * container in document order; an object's members are (key, value)
 * pairs, each key a kString node.
 */
struct Node {
    std::uint32_t begin = 0;  ///< first byte; strings: first content byte
    std::uint32_t end = 0;    ///< one past the value; strings: closing quote
    std::uint32_t next = 0;   ///< tape index one past this value's subtree
    Value::Kind kind = Value::Kind::kNull;
    bool escaped = false;     ///< string holding backslash escapes
    bool integral = false;    ///< number written as [-]digits
};

/** An integer read off a number node (see Tape::integer). */
struct Integer {
    bool ok = false;         ///< written as [-]digits and fits i64
    bool above_i64 = false;  ///< written as digits in [2^63, 2^64)
    long long value = 0;     ///< the value (modulo 2^64 when above_i64)
};

/** A validated document: its text and its node tape (root at index 0). */
class Tape {
  public:
    using Ix = std::uint32_t;
    static constexpr Ix kNone = ~Ix{0};

    std::string_view text() const { return text_; }
    const Node& operator[](Ix i) const { return nodes_[i]; }
    bool is(Ix i, Value::Kind k) const { return nodes_[i].kind == k; }

    /** 1-based source line where node `i` starts (counted on demand:
     *  only error paths ask). */
    int line(Ix i) const;

    /** Node `i`'s bytes: a string's content (escapes unresolved), or a
     *  number, literal or container token. */
    std::string_view raw(Ix i) const
    {
        return text_.substr(nodes_[i].begin,
                            nodes_[i].end - nodes_[i].begin);
    }

    /** Value of the first member of object `obj` whose key is `key`
     *  (escapes resolved), or kNone — Value::find's rule. */
    Ix find(Ix obj, std::string_view key) const;

    /** Elements of array `i` (members of an object). */
    std::size_t size(Ix i) const
    {
        const bool object = nodes_[i].kind == Value::Kind::kObject;
        std::size_t n = 0;
        for (Ix c = i + 1; c < nodes_[i].next;
             c = nodes_[object ? c + 1 : c].next) {
            ++n;
        }
        return n;
    }

    /** String node `i` with its escapes resolved. */
    std::string string(Ix i) const;

    /** Number node `i` as strtod reads it. */
    double real(Ix i) const;

    /** Number node `i` as an integer, as Value::integral/above_i64 see it. */
    Integer integer(Ix i) const;

  private:
    friend Tape scan(std::string_view text);

    std::string_view text_;
    std::vector<Node> nodes_;
};

/**
 * Validates one complete JSON document (trailing garbage rejected) and
 * records its tape. The tape views `text`, which must outlive it.
 * @throws ParseError with id "qdj.syntax" on malformed input.
 */
Tape scan(std::string_view text);

/**
 * Parses one complete JSON document into a DOM.
 * @throws ParseError with id "qdj.syntax" on malformed input.
 */
Value parse(std::string_view text);

/**
 * strtod over all of `s`: true, with `out` set, iff strtod consumes every
 * byte. Hex floats in the form printf's "%a" writes for a normal double
 * or a zero (the encoder's output) are assembled bit by bit; everything
 * else goes to strtod.
 */
bool parse_real(std::string_view s, double& out);

}  // namespace qd::ir::json

#endif  // QDSIM_IR_JSON_H
