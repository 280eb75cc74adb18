/**
 * @file json.h
 * Minimal JSON reader for the .qdj circuit IR.
 *
 * A small recursive-descent parser producing a DOM with per-value source
 * lines (decode errors point at the offending line of untrusted input).
 * Deliberately dependency-free: the IR must parse in every build the
 * simulator builds in. Syntax failures throw ir::ParseError with the
 * stable id "qdj.syntax".
 */
#ifndef QDSIM_IR_JSON_H
#define QDSIM_IR_JSON_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qdsim/ir/errors.h"

namespace qd::ir::json {

/** One parsed JSON value. */
struct Value {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

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
 * Parses one complete JSON document (trailing garbage rejected).
 * @throws ParseError with id "qdj.syntax" on malformed input.
 */
Value parse(std::string_view text);

}  // namespace qd::ir::json

#endif  // QDSIM_IR_JSON_H
