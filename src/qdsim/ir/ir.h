/**
 * @file ir.h
 * Versioned, stable circuit IR: the human-readable `.qdj` JSON text form
 * plus the content hash the CompileService keys on.
 *
 * The text form round-trips `Circuit` exactly:
 *   - mixed-radix wire dims are explicit ("dims": [3, 3, 2, ...]);
 *   - gate-library gates serialize by registered family + parameters
 *     (gates::recognize_gate / gates::build_gate), reconstructed
 *     canonically on decode;
 *   - everything else serializes as a raw matrix with full-precision
 *     hex-float entries ("0x1.5bf0a8b145769p+1"), so doubles survive the
 *     text round-trip bit for bit.
 *
 * Decoding costs about one pass over the bytes: json::scan validates the
 * whole document and records its tape, and the members then decode in a
 * fixed check order straight into a Circuit (so a syntax error anywhere
 * wins over every semantic error). Hex floats in the form "%a" writes
 * are assembled bit by bit and every other number goes to strtod, so the
 * accepted set is strtod's. Each distinct gate of a document — ops whose
 * gate members ("gate", "i", "r", "base", or "name" and "m") have the
 * same text, on operand wires of the same dims — is built once and
 * shared by every op that uses it, so a decoded circuit holds one Gate
 * payload per distinct gate. Encoding
 * recognizes each distinct gate (found by its name and matrix digest)
 * once per document and writes numbers with std::to_chars.
 *
 * `circuit_hash` covers the semantic content only: wire dims, per-op
 * wires, and each gate's matrix digest (Gate::digest: matrix size and
 * entry bit patterns; names excluded). Digests are cached in the gate
 * payloads, so hashing is O(ops) and a decoded circuit digests each
 * distinct gate once. `same_content` is the exact comparison the hash
 * stands for; the CompileService breaks hash ties with it.
 *
 * Decode failures of untrusted input always throw ir::ParseError carrying
 * a stable dotted error id; they never crash. The ids are:
 *
 *   qdj.syntax        malformed JSON (truncated file, bad token, ...)
 *   qdj.version       missing or unsupported "qdj" version field
 *   qdj.schema        wrong document shape (missing/ill-typed members)
 *   qdj.dims          illegal wire dims (dim < 2, too many wires, ...)
 *   qdj.wires         bad op wires (out of range, duplicate, empty)
 *   qdj.unknown-gate  gate family not in the registry
 *   qdj.params        wrong parameters for a registered family
 *   qdj.dim-mismatch  gate dims do not match the operand wires
 *   qdj.matrix        raw matrix with the wrong shape
 *   qdj.number        unparseable numeric literal (hex-float strings)
 *   qdj.non-finite    NaN/Inf matrix entry or parameter
 *   qdj.job           bad job envelope (engine, shots, noise, ...)
 */
#ifndef QDSIM_IR_IR_H
#define QDSIM_IR_IR_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "qdsim/circuit.h"
#include "qdsim/ir/errors.h"
#include "qdsim/verify/report.h"

namespace qd::ir {

/** Current .qdj schema version (the "qdj" field). */
inline constexpr int kQdjVersion = 1;

// --------------------------------------------------------------- hashing ---

/**
 * Content hash of a circuit over its wire dims and, per op, its wires and
 * its gate's matrix digest. Gate names are excluded: circuits that apply
 * the same matrices to the same wires hash identically regardless of
 * labeling. An in-process cache key, not a stable identifier: it is never
 * persisted.
 */
std::uint64_t circuit_hash(const Circuit& circuit);

/**
 * True iff both circuits have the same wire dims and, op by op, the same
 * wires and bitwise-identical matrices (names excluded): the equality
 * circuit_hash stands for. Ops whose gates share a payload, or a payload
 * pair already compared, cost no matrix comparison.
 */
bool same_content(const Circuit& a, const Circuit& b);

// ------------------------------------------------------------- .qdj text ---

/** Serializes a circuit to .qdj text (kind "circuit"). */
std::string to_qdj(const Circuit& circuit);

/**
 * Parses .qdj text with kind "circuit" back into a Circuit.
 * @throws ParseError with a stable qdj.* id on any malformed input.
 */
Circuit circuit_from_qdj(std::string_view text);

/** One executable .qdj job: a circuit plus how to run it. */
struct Job {
    std::string name;              ///< label carried into result JSON
    std::string engine = "state";  ///< "state" | "trajectory" | "density"
    int shots = 100;               ///< trajectory trial count
    std::uint64_t seed = 2019;     ///< RNG root seed
    int batch = 0;                 ///< trajectory lane width (0 = auto)
    bool fusion = true;            ///< compile with fusion enabled
    std::string noise;             ///< noise preset name ("" = ideal)
    Circuit circuit;
};

/** Serializes a job to .qdj text (kind "job"). */
std::string to_qdj(const Job& job);

/**
 * Parses .qdj text into a Job. A kind "circuit" document yields a Job
 * with default execution fields (state engine, no noise).
 * @throws ParseError with a stable qdj.* id on any malformed input.
 */
Job job_from_qdj(std::string_view text);

/** Converts a decode failure into a verify Report (one kError finding
 *  whose rule is the stable qdj.* id), so IR rejections flow through the
 *  same structured-report channel as verification rejections. */
verify::Report to_report(const Error& error);

}  // namespace qd::ir

#endif  // QDSIM_IR_IR_H
